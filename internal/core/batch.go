package core

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/network"
)

// Cone-disjoint batched scheduling.
//
// The per-node driver (run.substituteNode) is strictly serial: within one
// dividend every trial after the first positive-gain commit would be
// wasted. The batch scheduler therefore speculates across DIVIDENDS — the
// engine's only concurrency. A batch is the maximal prefix (in the pass's
// outputs-first order) of dividends whose claim footprints are pairwise
// disjoint; each member's whole trial sequence runs on one worker
// against the frozen pre-batch network, and a serial sweep then replays the
// members in pass order, committing each surviving plan — so every
// in-flight trial is work the sweep can commit.
//
// Determinism argument (byte-identity with the serial driver, at any worker
// count, batch on or off). The sweep visits members in exactly the order
// the serial driver visits nodes. Inductively, assume the network state
// before member j's sweep slot equals the serial state S_{j-1}. Member j's
// speculation was computed against the batch-start state S_0; the sweep
// accepts it only if the eviction rules below prove every input of member
// j's serial computation is identical in S_0 and S_{j-1}:
//
//	E1a  dirtyCone[f]: f itself or f's fanin-cone content changed — covers
//	     the dividend's node data and its trial windows (a cone change puts
//	     f in TFO(target)).
//	E1b  dirtySupp ∩ guard, guard = {f} ∪ supp(f) ∪ TFO(f): any commit
//	     whose touched nodes gained or lost a fanin in the guard. This
//	     catches candidate-set drift — every enumeration candidate shares a
//	     fanin NAME with f (see candidateDivisors), so a node entering or
//	     leaving the candidate universe was touched while holding a fanin
//	     in supp(f) — and TFO-membership drift, because a path from f is
//	     created or broken only by a commit whose target holds a fanin in
//	     TFO(f) ∪ {f} (its path predecessor).
//	E2   dirtyCone[d] for a listed candidate d: d's cone content changed,
//	     so d's trial outcomes (a function of cone(f), cone(d), opts) may
//	     differ.
//	E3   bdcDirty and the plan creates nodes: a commit added a
//	     "bdc"-prefixed name, or swapped the whole network (the only way a
//	     "bdc" name is deleted: overlay plans never delete), so the fresh
//	     core name the speculated plan embeds may no longer be the name
//	     FreshName would pick at this slot.
//	E4   a whole-network-clone plan with any prior sweep commit: the clone
//	     embeds S_0 wholesale; committing it by CopyFrom would revert the
//	     earlier commits. (Overlay plans commit by delta and are exempt.)
//
// A member that passes every rule behaves, by the rules' coverage of its
// inputs, exactly as the serial driver would at S_{j-1}; a member that
// fails any rule is evicted and literally re-run through the serial
// per-node sequence (substituteNode) — so the induction closes either way.
// Commits performed by eviction re-runs route through run.commit and fold
// into the same dirty marks, keeping later members' checks sound.
//
// Conflict-claim soundness note: the claims make conflicts *unlikely*,
// maximizing surviving speculation; the eviction rules alone carry
// correctness. A member claims the node-driven signals of {f} ∪ fanins(f) ∪
// TFO(f) ∪ its truncated candidate list — exactly the signals rules E1a, E1b
// and E2 read when an earlier member commits a node plan. Such a commit at
// g marks {g} ∪ TFO(g) cone-dirty and g's old and new fanins, a subset of
// fanins(g) ∪ {d}, support-dirty; all of those lie in g's claim, so a
// disjoint claim keeps f, its guard and its candidates clean. f's fanin
// cone beyond its direct fanins is not claimed: a commit at g dirties f
// only when f ∈ TFO(g), and g's claim holds TFO(g). Claims leave the rest
// to the rules on purpose — rules E1b/E3/E4 see through interactions
// (shared primary-input fanins, the global fresh-name counter, multi-node
// overlay and clone plans) that claim disjointness does not capture.

// batchWindow caps how many claiming (candidate-bearing) members one batch
// may hold: enough to keep every worker fed several times over, small
// enough that early-member commits rarely invalidate the tail. On large
// circuits the cap scales up (see batchWindowFor) so the per-batch fixed
// costs — the phase-B dispatch and the sweep's mark generation — amortize
// over more members.
const batchWindow = 32

// batchWindowMax bounds the adaptive window: beyond this, early-member
// commits invalidating the tail (eviction re-runs) start to outweigh the
// amortization, and phase A's serial scan grows long enough to starve the
// workers.
const batchWindowMax = 512

// batchWindowFor sizes the claiming window for a pass over n candidate
// dividends. Purely a function of n — never of worker count — so the batch
// partition, and with it the committed network, stays byte-identical
// across Workers settings.
func batchWindowFor(n int) int {
	w := n / 64
	if w < batchWindow {
		return batchWindow
	}
	if w > batchWindowMax {
		return batchWindowMax
	}
	return w
}

// batchConeCap caps a member's fanout-cone walk. A dividend whose TFO
// exceeds it (e.g. the carry spine of a ripple adder, whose fanout cone is
// half the circuit) is unbatchable: claiming it would serialize the batch
// anyway, and extracting megabyte cones per node would be O(V²).
const batchConeCap = 4096

// batchMember is one dividend of a batch, with everything its worker needs
// precomputed on the serial side (phase A) and everything the sweep needs
// to validate or evict it (phase C).
type batchMember struct {
	pos     int           // position in the pass's id order (diagnostic)
	id      network.SigID // dividend signal
	f       string        // dividend name at batch-build time
	trivial bool          // node was nil/zero-cover at scan time: nothing to do
	solo    bool          // over-cap footprint: no claim, run via the serial fallback
	build   int           // build serial number (tells a reuse from a rebuild)

	cands   []candidate
	candIDs []network.SigID // SigID of each candidate (rule E2)

	fp    []network.SigID // claim: node-driven {f} ∪ fanins(f) ∪ TFO(f) ∪ candIDs
	tfo   []network.SigID // TFO(f), all node-driven
	guard []network.SigID // {f} ∪ raw fanin IDs of f ∪ TFO(f) (rule E1b)

	// Phase-B results.
	res      []planResult
	consumed int  // slots the serial schedule would have evaluated
	planIdx  int  // first-positive (or best-gain) slot; -1 = none
	pooled   bool // plan came from the pooled fallback
	plan     plan
	hasPlan  bool
	spec     int // speculative trial verdicts produced
}

// batchObserver, when set (tests only), receives every multi-member batch
// after phase A — the seam the cone-disjointness property test hooks.
var batchObserver func(members []*batchMember)

// batchScheduler drives the three batch phases for one Substitute run.
type batchScheduler struct {
	r       *run
	members []*batchMember
	work    []*batchMember // phase B's claiming members (reused)

	// free holds released members; member reuses them with their slices'
	// capacity, so phase A does not regrow a member's slices per dividend.
	free   []*batchMember
	builds int // members built so far (see batchMember.build)

	arena network.ConeArena // footprint dedup (serial side)

	// claim is the batch-construction stamp set: a marked signal is part of
	// an earlier member's footprint.
	claim network.ConeArena

	// carry is the member whose claim conflict ended the previous batch,
	// built against the network of commit epoch carryEpoch. The next batch
	// starts at its slot and reuses it there when nothing has committed
	// since: the network it was built against is then the current one, so
	// rebuilding would reproduce it exactly. Cleared at pass start.
	carry      *batchMember
	carryEpoch uint64

	// dirtyCone/dirtySupp are the sweep's conflict marks (one generation
	// per sweep): dirtyCone holds touched targets plus their transitive
	// fanout, dirtySupp holds the old and new fanins of touched nodes.
	dirtyCone, dirtySupp network.ConeArena
	coneIDs              []network.SigID // markConeTFO's walk output (discarded)

	sweeping  bool // run.commit routes commits through the marks while set
	bdcDirty  bool // a commit touched the "bdc" fresh-name namespace
	allDirty  bool // a whole-network CopyFrom happened: evict everything
	committed int  // commits so far in this sweep (rule E4)
}

func newBatchScheduler(r *run) *batchScheduler {
	return &batchScheduler{r: r}
}

// runBatch builds and executes one batch starting at ids[i] and scanning
// downward, returning how many positions it consumed (≥1) and whether any
// commit happened.
func (s *batchScheduler) runBatch(ids []network.SigID, i int) (int, bool) {
	r := s.r
	nw := r.nw

	// Phase A (serial): scan members until a claim conflict, an over-cap
	// footprint, the window cap, or the end of the pass. Cone walks run on
	// the network's live fanout lists, so nothing here rebuilds a
	// whole-network index.
	for _, m := range s.members {
		s.release(m)
	}
	s.members = s.members[:0]
	s.claim.Reset()
	claiming := 0
	solo := false
	took := 0
scan:
	for pos := i; pos >= 0; pos-- {
		id := ids[pos]
		fn := nw.NodeByID(id)
		if fn == nil || fn.Cover.IsZero() {
			m := s.member(pos, id)
			m.trivial = true
			s.members = append(s.members, m)
			took++
			continue
		}
		m := s.takeCarry(pos, id)
		if m == nil {
			m = s.buildMember(pos, id, fn.Name, claiming == 0)
		}
		if m == nil {
			// Unbatchable footprint behind a claiming member: end the batch
			// before it.
			break scan
		}
		if m.solo {
			s.members = append(s.members, m)
			took++
			solo = true
			break scan
		}
		if len(m.cands) > 0 {
			if !s.claimAll(m.fp) {
				// Cone conflict: the batch ends before m, and the next
				// batch starts at m.
				s.carry, s.carryEpoch = m, r.ev.epoch
				break scan
			}
			claiming++
		}
		s.members = append(s.members, m)
		took++
		if claiming >= batchWindowFor(len(ids)) {
			break scan
		}
	}

	// Fewer than two claiming members: batching buys nothing — run the
	// prefix through the plain serial sequence. Until something commits,
	// the network is the one phase A built the members against, so their
	// candidate lists are exactly what substituteNode would rebuild; after
	// that, each member starts from scratch.
	if claiming <= 1 || solo {
		changed := false
		built := r.ev.epoch
		for _, m := range s.members {
			var ch bool
			if m.trivial || r.ev.epoch != built {
				ch = r.substituteNode(m.id)
			} else {
				ch = r.tryCandidates(m.f, m.cands)
			}
			changed = changed || ch
		}
		return took, changed
	}

	if batchObserver != nil {
		batchObserver(s.members)
	}

	// Phase B (parallel): each member's whole trial sequence on one worker.
	s.work = s.work[:0]
	for _, m := range s.members {
		if !m.trivial && len(m.cands) > 0 {
			s.work = append(s.work, m)
		}
	}
	s.runMembers(s.work)

	// Phase C (serial): sweep the members in pass order.
	return took, s.sweep()
}

// runMembers is phase B: it runs every member's trial sequence on a bounded
// pool of up to Options.Workers goroutines, one scratch per worker. A panic
// in a worker (an Options.Audit tripwire, say) is recovered there and
// re-raised on the calling goroutine once every worker has stopped, so it
// reaches the caller's recover instead of killing the process.
func (s *batchScheduler) runMembers(work []*batchMember) {
	ev := s.r.ev
	for _, sc := range ev.scratches {
		sc.epoch = ev.epoch
	}
	n := ev.workers
	if n > len(work) {
		n = len(work)
	}
	if n <= 1 {
		for _, m := range work {
			s.runMember(m, ev.scratches[0])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failure any
	for w := 0; w < n; w++ {
		wg.Add(1)
		//bdslint:ignore spawn this is the engine's one bounded worker pool: phase B of the batch scheduler
		go func(sc *scratch) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if failure == nil {
						failure = p
					}
					mu.Unlock()
				}
			}()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(work) {
					return
				}
				s.runMember(work[k], sc)
			}
		}(ev.scratches[w])
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}

// startPass drops the carried member: a new pass snapshots a new id order.
func (s *batchScheduler) startPass() {
	if s.carry != nil {
		s.release(s.carry)
		s.carry = nil
	}
}

// takeCarry returns the carried member when it was built for this slot of
// the pass and nothing has committed since, and nil otherwise; either way
// the carry is consumed.
func (s *batchScheduler) takeCarry(pos int, id network.SigID) *batchMember {
	m := s.carry
	s.carry = nil
	if m == nil {
		return nil
	}
	if m.pos != pos || m.id != id || s.carryEpoch != s.r.ev.epoch {
		s.release(m)
		return nil
	}
	return m
}

// member returns an empty member for slot pos, reusing a released one.
func (s *batchScheduler) member(pos int, id network.SigID) *batchMember {
	var m *batchMember
	if n := len(s.free); n > 0 {
		m = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		m = new(batchMember)
	}
	m.pos, m.id = pos, id
	return m
}

// release clears m and keeps it, with its slices' capacity, for member.
// The cleared candidate and result slots drop their covers and plans (the
// candidate list may have been truncated, so it is cleared to capacity).
func (s *batchScheduler) release(m *batchMember) {
	clear(m.cands[:cap(m.cands)])
	clear(m.res)
	*m = batchMember{
		cands: m.cands[:0], candIDs: m.candIDs[:0],
		fp: m.fp[:0], tfo: m.tfo[:0], guard: m.guard[:0],
		res: m.res[:0],
	}
	s.free = append(s.free, m)
}

// buildMember walks dividend f's fanout cone once, capped at batchConeCap,
// and precomputes from it the member's candidate list, claim footprint and
// rule inputs. An over-cap cone makes f unbatchable: buildMember returns
// nil, unless alone is set (no earlier member of the batch claims), in
// which case it finishes the walk uncapped and returns a solo member with
// its candidate list and no claim — the list substituteNode would build,
// without walking the cone's capped part a second time.
func (s *batchScheduler) buildMember(pos int, id network.SigID, f string, alone bool) *batchMember {
	r := s.r
	nw := r.nw
	opt := r.opt
	es := &r.enum
	m := s.member(pos, id)
	m.f = f
	s.builds++
	m.build = s.builds

	// The walk's marks are exactly TFO(f), which is what enumeration needs.
	es.tfo.Reset()
	var ok bool
	m.tfo, ok = nw.AppendFanoutConeIDs(id, &es.tfo, m.tfo, batchConeCap)
	if !ok {
		if !alone {
			s.release(m)
			return nil
		}
		es.tfoIDs = nw.ResumeFanoutConeIDs(&es.tfo, es.tfoIDs[:0])
		m.solo = true
	}
	m.cands = enumerateCandidates(nw, r.nc, id, opt, es, m.cands)
	if len(m.cands) > r.maxTrials {
		m.cands = m.cands[:r.maxTrials]
	}
	if m.solo {
		return m
	}
	fanins := nw.FaninIDsOf(id)
	m.guard = append(append(append(m.guard, id), fanins...), m.tfo...)
	for _, c := range m.cands {
		m.candIDs = append(m.candIDs, c.id)
	}

	// The claim. TFO(f) is disjoint from f and its fanins (the network is
	// acyclic) and from the candidates (enumeration skips it), so only the
	// fanins and the candidates — which repeat across forms and may be
	// fanins of f — need deduplicating.
	s.arena.Reset()
	s.arena.Mark(id)
	m.fp = append(m.fp, id)
	for _, x := range fanins {
		if nw.NodeByID(x) != nil && s.arena.Mark(x) {
			m.fp = append(m.fp, x)
		}
	}
	m.fp = append(m.fp, m.tfo...)
	for _, d := range m.candIDs {
		if s.arena.Mark(d) {
			m.fp = append(m.fp, d)
		}
	}
	return m
}

// runMember executes member m's whole trial sequence against the frozen
// batch-start network on one worker: the serial driver's per-slot trials,
// with first-positive early exit (or a full scan plus best-gain selection
// under Options.BestGain) and the pooled fallback inline.
func (s *batchScheduler) runMember(m *batchMember, sc *scratch) {
	r := s.r
	nw := r.nw
	opt := r.opt
	m.res = append(m.res[:0], make([]planResult, len(m.cands))...)
	m.planIdx = -1

	runTrial := func(i int) {
		m.res[i].p, m.res[i].ok = planPair(sc, nw, m.f, m.cands[i], opt)
	}

	if opt.BestGain {
		for i := range m.cands {
			runTrial(i)
		}
		m.consumed = len(m.cands)
		for i, res := range m.res {
			if res.ok && res.p.gain > 0 &&
				(m.planIdx < 0 || res.p.gain > m.res[m.planIdx].p.gain) {
				m.planIdx = i // strict > keeps the earliest slot on ties
			}
		}
	} else {
		for i := range m.cands {
			runTrial(i)
			m.consumed = i + 1
			if m.res[i].ok && m.res[i].p.gain > 0 {
				m.planIdx = i
				break // paper: take the first positive-gain division
			}
		}
	}
	if m.planIdx >= 0 {
		m.plan, m.hasPlan = m.res[m.planIdx].p, true
	} else if opt.Pool && opt.Config != Basic {
		if p, ok := planPooled(sc, nw, m.f, m.cands, opt); ok {
			m.plan, m.hasPlan, m.pooled = p, true, true
		}
		m.spec++ // the pooled attempt is speculation too
	}
	m.spec += m.consumed
}

// sweep replays the batch's members in pass order against the live network:
// validated members commit their speculated plan (or nothing); evicted
// members re-run the serial per-node sequence.
func (s *batchScheduler) sweep() bool {
	r := s.r
	nw := r.nw
	changed := false
	s.sweeping = true
	s.dirtyCone.Reset()
	s.dirtySupp.Reset()
	s.bdcDirty, s.allDirty = false, false
	s.committed = 0
	for _, m := range s.members {
		if m.trivial {
			// Exact re-check at the member's slot: an earlier commit can
			// re-create a scan-time-dead signal (an overlay AddNode reusing
			// its interned ID), in which case the serial driver would have
			// processed it here.
			if fn := nw.NodeByID(m.id); fn == nil || fn.Cover.IsZero() {
				continue
			}
			r.st.ConflictEvictions++
			if r.substituteNode(m.id) {
				changed = true
			}
			continue
		}
		r.st.SpeculatedTrials += m.spec
		if s.evict(m) {
			r.st.ConflictEvictions++
			if m.hasPlan {
				r.st.DiscardedPlans++
			}
			if r.substituteNode(m.id) {
				changed = true
			}
			continue
		}
		if !m.hasPlan {
			s.tally(m)
			continue
		}
		if m.pooled {
			// Pooled plans follow the full candidate scan serially, so the
			// scan tallies regardless of the commit's fate, and a failed
			// pooled commit ends the node without a re-run.
			s.tally(m)
			poolOpt := r.opt
			poolOpt.DepthBudget = 0
			if r.commit(m.plan, poolOpt) {
				changed = true
				r.st.BatchCommits++
				s.committed++
			} else {
				r.st.DiscardedPlans++
			}
			continue
		}
		if r.commit(m.plan, r.opt) {
			changed = true
			r.st.BatchCommits++
			s.committed++
			s.tally(m)
		} else {
			// The serial driver keeps scanning candidates after a failed
			// commit; re-run the node serially (without tallying the
			// speculated slots — the re-run tallies its own trials).
			r.st.DiscardedPlans++
			if r.substituteNode(m.id) {
				changed = true
			}
		}
	}
	s.sweeping = false
	return changed
}

// evict applies rules E1–E4 (see the file comment) to member m at its
// sweep slot.
func (s *batchScheduler) evict(m *batchMember) bool {
	if s.allDirty {
		return true
	}
	if s.dirtyCone.Marked(m.id) { // E1a
		return true
	}
	for _, g := range m.guard { // E1b
		if s.dirtySupp.Marked(g) {
			return true
		}
	}
	for _, d := range m.candIDs { // E2
		if s.dirtyCone.Marked(d) {
			return true
		}
	}
	if m.hasPlan && !m.plan.isNode() {
		if s.bdcDirty && planCreatesNames(&m.plan) { // E3
			return true
		}
		if _, clone := m.plan.work.(*network.Network); clone && s.committed > 0 { // E4
			return true
		}
	}
	return false
}

// planCreatesNames reports whether committing p interns fresh node names
// (rule E3's precondition). Clone plans are conservatively assumed to.
func planCreatesNames(p *plan) bool {
	if p.isNode() {
		return false
	}
	if ov, ok := p.work.(*network.Overlay); ok {
		return len(ov.Added()) > 0
	}
	return true
}

// tally folds the member's consumed result slots into the run statistics,
// exactly as the serial driver tallies each trial.
func (s *batchScheduler) tally(m *batchMember) {
	s.r.st.DivisorTrials += m.consumed
}

// commitMarks carries one commit's conflict-mark state across the
// pre/post-commit boundary: touched node IDs resolved before the mutation
// (their old fanins are only readable then) and added names resolved after
// (they are only interned then).
type commitMarks struct {
	touched []network.SigID
	added   []string
	clone   bool
}

// precommit records the commit's touched set and old-fanin support marks
// against the pre-mutation network. Called by run.commit while sweeping.
func (s *batchScheduler) precommit(p *plan) commitMarks {
	var cm commitMarks
	nw := s.r.nw
	if p.isNode() {
		if id, ok := nw.IDOf(p.target); ok {
			cm.touched = append(cm.touched, id)
			s.markSupp(nw.FaninIDsOf(id))
		}
		return cm
	}
	ov, ok := p.work.(*network.Overlay)
	if !ok {
		cm.clone = true // CopyFrom commit: poison everything in postcommit
		return cm
	}
	// The overlay's recorded delta is the complete touched set — p.touched
	// is only the {f, d} summary and may omit nodes the trial rewrote.
	for _, n := range ov.Added() {
		cm.added = append(cm.added, n.Name)
		if strings.HasPrefix(n.Name, "bdc") {
			s.bdcDirty = true
		}
	}
	for _, n := range ov.Changed() {
		if id, idOK := nw.IDOf(n.Name); idOK {
			cm.touched = append(cm.touched, id)
			s.markSupp(nw.FaninIDsOf(id))
		}
	}
	return cm
}

// postcommit completes the marks after a successful commit: added names
// resolve to IDs now, surviving touched nodes contribute their new fanins,
// and every touched signal's transitive fanout goes cone-dirty. The TFO
// walk runs on the live (post-commit) fanout lists. That covers every node
// whose fanin cone the commit changed: the only edges a commit changes
// point INTO its touched nodes, so a node that gained a touched node in its
// cone reaches it by a post-state path, and a node that lost one had a
// pre-state path whose last touched node u kept every edge after it — so
// the node is still in u's post-state fanout.
func (s *batchScheduler) postcommit(cm commitMarks) {
	if cm.clone {
		s.allDirty = true
		s.bdcDirty = true
		return
	}
	nw := s.r.nw
	for _, name := range cm.added {
		if id, ok := nw.IDOf(name); ok {
			cm.touched = append(cm.touched, id)
		}
	}
	for _, id := range cm.touched {
		if nw.NodeByID(id) != nil {
			s.markSupp(nw.FaninIDsOf(id))
		}
		s.markConeTFO(id)
	}
}

// claimAll atomically claims the footprint: it reports false (claiming
// nothing) if any signal is already claimed by an earlier member.
func (s *batchScheduler) claimAll(fp []network.SigID) bool {
	for _, id := range fp {
		if s.claim.Marked(id) {
			return false
		}
	}
	for _, id := range fp {
		s.claim.Mark(id)
	}
	return true
}

func (s *batchScheduler) markSupp(ids []network.SigID) {
	for _, id := range ids {
		s.dirtySupp.Mark(id)
	}
}

// markConeTFO marks id and its transitive fanout cone-dirty. A signal
// already marked ends the walk there: its fanout was marked with it.
func (s *batchScheduler) markConeTFO(id network.SigID) {
	if !s.dirtyCone.Mark(id) {
		return
	}
	s.coneIDs, _ = s.r.nw.AppendFanoutConeIDs(id, &s.dirtyCone, s.coneIDs[:0], 0)
}
