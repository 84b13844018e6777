package core

import (
	"fmt"
	"math"
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
//	E1a  f is touched (a commit of this sweep added or replaced it) or
//	     depends on a touched node: f's node data or its fanin-cone content
//	     changed — covers the dividend and its trial windows.
//	E1b  dirtySupp ∩ guard, guard = {f} ∪ supp(f): any commit whose
//	     touched nodes gained or lost a fanin in the guard. This catches
//	     candidate-universe drift: every enumeration candidate shares a
//	     fanin with f (see enumerateCandidates), so a node entering or
//	     leaving the fanouts of f's fanins, or one of them whose body
//	     changed, was touched while holding a fanin in supp(f).
//	E2   a listed candidate d or a refused node d — a fanout of f's fanins
//	     that passed containment but that the rank search proved dependent
//	     on f — is touched or depends on a touched node: d's cone content
//	     changed. A candidate's trial outcomes (a function of cone(f),
//	     cone(d), opts) may then differ, and whether d depends on f may flip
//	     either way: a path from f to d appears or vanishes only by a change
//	     to d's fanin cone. (A node within two fanout steps of f is refused
//	     without a search and not listed: it stays dependent unless an edge
//	     of its short path breaks, which E1b sees — the first edge's break
//	     marks f support-dirty, the second's marks the node's old fanins,
//	     one of which f reads.)
//	E3   bdcDirty and the plan has added nodes or a clone: a commit added
//	     a "bdc"-prefixed name, or copied a clone (the only way a "bdc"
//	     name is deleted: body plans never delete), so the fresh core name
//	     the speculated plan embeds may no longer be the name FreshName
//	     would pick at this slot. A clone plan is assumed to create names.
//	E4   a plan with a clone and any prior commit in the sweep: the clone
//	     embeds S_0 wholesale; committing it by CopyFrom would revert the
//	     earlier commits. (Body plans install only their own nodes and are
//	     exempt.)
//	E5   the sequence ran the pooled fallback and a pool node (one of its
//	     first poolSize distinct SOP candidates) is support-dirty: the
//	     pooled trial prices only the pool nodes that survive its clone's
//	     Sweep, so its verdict, a plan or none, depends on whether each
//	     pool node still has a fanout besides f, which a commit changes
//	     only by giving or taking that fanin. E4 sees only clone plans, so
//	     without E5 a pooled attempt that planned nothing went unchecked.
//	     E5 does not see a pool node die or revive deeper down, when a
//	     commit in its fanout cone drops or adds the last live reader of a
//	     node the pool node feeds (ROADMAP item 6).
//
// Why touched nodes suffice for E1a and E2: a commit changes only edges
// INTO its touched nodes, so a node whose fanin cone a commit of this sweep
// changed still depends, at its own slot, on the last touched node along
// the changed path. Both rules are one rank search (reached) that enters
// only signals ranked above lo, the lowest rank a touched node had when
// touched; ranks only rise, so lo stays a lower bound and the search exact.
//
// A member that passes every rule behaves, by the rules' coverage of its
// inputs, exactly as the serial driver would at S_{j-1}: phase B ran the
// same trial sequence (trialSeq) the serial driver runs, to the same plan.
// A member that fails any rule is evicted and literally re-run through the
// serial per-node sequence (substituteNode) — so the induction closes
// either way.
// Commits performed by eviction re-runs route through run.commit and fold
// into the same marks, keeping later members' checks sound.
//
// Conflict-claim soundness note: the claims make conflicts *unlikely*,
// maximizing surviving speculation; the eviction rules alone carry
// correctness. A member claims the node-driven signals of {f} ∪ fanins(f) ∪
// its truncated candidate list, which phase A knows without walking any
// cone. A commit of a node plan at g marks g's old and new fanins, a subset
// of fanins(g) ∪ {d}, support-dirty, and all of those lie in g's claim, so
// a disjoint claim keeps f's guard clean and f's candidates untouched.
// What claims do not keep out is a deeper interaction: f lying downstream
// of g, which E1a evicts, or a candidate or refused node of f doing so,
// which E2 evicts. Claiming TFO(g) would take a fanout-cone walk per
// member, which costs more serial time than those evictions re-run. The
// rest is left to the rules on purpose — rules E1b/E3/E4/E5 see through
// interactions (shared primary-input fanins, the global fresh-name counter,
// multi-node body plans, clone plans and pool-node fanouts) that claim
// disjointness does not capture.

// batchWindow caps how many claiming (candidate-bearing) members one batch
// may hold: enough to keep every worker fed several times over, small
// enough that early-member commits rarely invalidate the tail. On large
// circuits the cap scales up (see batchWindowFor) so the per-batch fixed
// costs — the phase-B dispatch and the sweep's mark generations — amortize
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

// batchMember is one dividend of a batch, with everything its worker needs
// precomputed on the serial side (phase A) and everything the sweep needs
// to validate or evict it (phase C). Its trial sequence (f and the
// truncated candidate list) is built in phase A and run in phase B.
type batchMember struct {
	trialSeq
	pos     int           // position in the pass's id order (diagnostic)
	id      network.SigID // dividend signal
	trivial bool          // node was nil/zero-cover at scan time: nothing to do
	build   int           // build serial number (tells a reuse from a rebuild)

	fp    []network.SigID // claim: node-driven {f} ∪ fanins(f) ∪ candidates (rules E1a, E2)
	dep   []network.SigID // nodes the rank search refused as dependent on f (rule E2)
	guard []network.SigID // {f} ∪ raw fanin IDs of f (rule E1b)

	// Phase-B results: the sequence's plan, and how many trial verdicts
	// phase B produced (Stats.SpeculatedTrials).
	p    plan
	ok   bool
	spec int
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
	// built against the network at version carryVersion. The next batch
	// starts at its slot and reuses it there when the network is still at
	// that version: rebuilding would then reproduce it exactly. Cleared at
	// pass start.
	carry        *batchMember
	carryVersion uint64

	// The sweep's conflict marks, one generation per sweep: touched holds
	// the nodes a commit added or replaced, listed in touchedIDs for the
	// audit, dirtySupp their old and new fanins, and lo is the lowest rank
	// a touched node had when touched.
	touched, dirtySupp network.ConeArena
	touchedIDs         []network.SigID
	lo                 int32

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

	// Phase A (serial): scan members until a claim conflict, the window
	// cap, or the end of the pass. Enumeration reads the network's live
	// fanout lists and walks no cone, so nothing here grows with a
	// dividend's fanout.
	for _, m := range s.members {
		s.release(m)
	}
	s.members = s.members[:0]
	s.claim.Reset()
	claiming := 0
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
			m = s.buildMember(pos, id, fn.Name)
		}
		if len(m.cands) > 0 {
			if !s.claimAll(m.fp) {
				// Cone conflict: the batch ends before m, and the next
				// batch starts at m.
				s.carry, s.carryVersion = m, nw.Version()
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
	// prefix through the plain serial sequence. While the network is at the
	// version phase A built the members against, their candidate lists are
	// exactly what substituteNode would rebuild; after that, each member
	// starts from scratch.
	if claiming <= 1 {
		changed := false
		built := nw.Version()
		for _, m := range s.members {
			var ch bool
			if m.trivial || nw.Version() != built {
				ch = r.substituteNode(m.id)
			} else {
				ch = r.runSeq(&m.trialSeq)
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
	if m.pos != pos || m.id != id || s.carryVersion != s.r.nw.Version() {
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
// The cleared candidate slots drop their covers (the candidate list may
// have been truncated, so it is cleared to capacity).
func (s *batchScheduler) release(m *batchMember) {
	clear(m.cands[:cap(m.cands)])
	*m = batchMember{
		trialSeq: trialSeq{cands: m.cands[:0]},
		fp:       m.fp[:0], dep: m.dep[:0], guard: m.guard[:0],
	}
	s.free = append(s.free, m)
}

// buildMember precomputes dividend f's member: its candidate list, the
// nodes the rank search refused as dependent on f, its claim footprint and
// its guard. It walks no cone.
func (s *batchScheduler) buildMember(pos int, id network.SigID, f string) *batchMember {
	r := s.r
	nw := r.nw
	es := &r.enum
	m := s.member(pos, id)
	m.f = f
	s.builds++
	m.build = s.builds

	m.cands = enumerateCandidates(nw, r.nc, id, r.opt, es, m.cands)
	if len(m.cands) > r.maxTrials {
		m.cands = m.cands[:r.maxTrials]
	}
	m.dep = append(m.dep, es.dep...)
	fanins := nw.FaninIDsOf(id)
	m.guard = append(append(m.guard, id), fanins...)

	// The claim. Candidates repeat across forms and may be fanins of f, so
	// the fanins and candidates are deduplicated.
	s.arena.Reset()
	s.arena.Mark(id)
	m.fp = append(m.fp, id)
	for _, x := range fanins {
		if nw.NodeByID(x) != nil && s.arena.Mark(x) {
			m.fp = append(m.fp, x)
		}
	}
	for _, c := range m.cands {
		if s.arena.Mark(c.id) {
			m.fp = append(m.fp, c.id)
		}
	}
	return m
}

// runMember is phase B for member m: it runs m's trial sequence against
// the frozen batch-start network on one worker — exactly the serial
// driver's planning, with the chosen node-form body already finished.
func (s *batchScheduler) runMember(m *batchMember, sc *scratch) {
	m.p, m.ok = m.choose(sc, s.r.nw, s.r.opt)
	m.spec = m.trials
	if m.pooled {
		m.spec++ // the pooled attempt is speculation too
	}
}

// sweep replays the batch's members in pass order against the live network:
// validated members commit their speculated plan (or nothing); evicted
// members re-run the serial per-node sequence.
func (s *batchScheduler) sweep() bool {
	r := s.r
	nw := r.nw
	changed := false
	s.sweeping = true
	s.touched.Reset()
	s.dirtySupp.Reset()
	s.touchedIDs, s.lo = s.touchedIDs[:0], math.MaxInt32
	s.bdcDirty, s.allDirty = false, false
	s.committed = 0
	for _, m := range s.members {
		if m.trivial {
			// Exact re-check at the member's slot: an earlier commit can
			// re-create a scan-time-dead signal (an installed addition
			// reusing its interned ID), in which case the serial driver
			// would have processed it here.
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
			if m.ok {
				r.st.DiscardedPlans++
			}
			if r.substituteNode(m.id) {
				changed = true
			}
			continue
		}
		// The member's speculation is the serial driver's at this slot, so
		// settle commits it as the serial driver would.
		if r.settle(&m.trialSeq, m.p, m.ok) {
			changed = true
			r.st.BatchCommits++
		}
	}
	s.sweeping = false
	return changed
}

// evict applies rules E1–E5 (see the file comment) to member m at its
// sweep slot.
func (s *batchScheduler) evict(m *batchMember) bool {
	if s.allDirty {
		return true
	}
	for _, g := range m.guard { // E1b
		if s.dirtySupp.Marked(g) {
			return true
		}
	}
	if m.pooled && s.poolDirty(m.cands) { // E5
		return true
	}
	if s.reached(m) { // E1a, E2
		return true
	}
	if !m.ok {
		return false
	}
	// E3: the plan creates names (a clone plan conservatively does).
	if s.bdcDirty && (len(m.p.added) > 0 || m.p.clone != nil) {
		return true
	}
	return m.p.clone != nil && s.committed > 0 // E4
}

// reached is rules E1a and E2: one rank search from m's claim, which holds
// f, f's node fanins and the candidates (while f is not touched, a fanin
// that reaches a touched node means f does too), and from m's refused
// nodes. Under Options.Audit the answer is checked.
func (s *batchScheduler) reached(m *batchMember) bool {
	if len(s.touchedIDs) == 0 {
		return false
	}
	got := s.r.enum.rank.reaches(s.lo, -1, &s.touched, m.fp, m.dep)
	if s.r.opt.Audit {
		s.auditReached(m, got)
	}
	return got
}

// auditReached panics unless got, the rank query's answer for member m, is
// whether a claimed or refused signal equals or depends on a node of the
// touched list by the unpruned Network.DependsOn. O(sources × touched ×
// network) — Options.Audit only.
func (s *batchScheduler) auditReached(m *batchMember, got bool) {
	nw := s.r.nw
	want := false
	for _, ids := range [...][]network.SigID{m.fp, m.dep} {
		for _, u := range ids {
			for _, x := range s.touchedIDs {
				want = want || nw.DependsOn(nw.SigName(u), nw.SigName(x))
			}
		}
	}
	if got != want {
		panic(fmt.Sprintf("core: sweep audit: the rank query says %s reaches a touched node: %v, the unpruned walk says %v", m.f, got, want))
	}
}

// poolDirty reports whether a pool node of a pooled attempt over cands —
// one of the first poolSize distinct SOP candidates, as planPooled picks
// them — is support-dirty.
func (s *batchScheduler) poolDirty(cands []candidate) bool {
	n := 0
	for i, c := range cands {
		if !poolCandidate(cands, i) {
			continue
		}
		if s.dirtySupp.Marked(c.id) {
			return true
		}
		if n++; n == poolSize {
			break
		}
	}
	return false
}

// precommit records, against the pre-mutation network, the old fanins of
// the nodes the plan replaces as support marks (they are only readable
// now), and whether the plan adds to the "bdc" namespace. Called by
// run.commit while sweeping.
func (s *batchScheduler) precommit(p *plan) {
	if p.clone != nil {
		return // a wholesale copy: postcommit poisons everything
	}
	nw := s.r.nw
	for _, n := range p.added {
		if strings.HasPrefix(n.Name, "bdc") {
			s.bdcDirty = true
		}
	}
	for _, n := range p.bodies {
		if id, ok := nw.IDOf(n.Name); ok {
			s.markSupp(nw.FaninIDsOf(id))
		}
	}
}

// sweepCorrupt, when set (tests only), drops the touched marks of each
// sweep's first commit but keeps them listed — the corruption-injection
// seam proving the Options.Audit check of the rank query fires.
var sweepCorrupt bool

// postcommit completes the marks once run.commit has repaired the ranks:
// each node the plan replaced or added contributes its new fanins as
// support marks and, the first time, joins the touched marks and list and
// lowers lo to its repaired rank. A node touched again ranks no lower than
// it did then: ranks only rise. Called by run.commit while sweeping.
func (s *batchScheduler) postcommit(p *plan) {
	s.committed++
	if p.clone != nil {
		s.allDirty, s.bdcDirty = true, true
		return
	}
	nw := s.r.nw
	for _, ns := range [...][]*network.Node{p.bodies, p.added} {
		for _, n := range ns {
			id, ok := nw.IDOf(n.Name)
			if !ok {
				continue
			}
			if nw.NodeByID(id) != nil {
				s.markSupp(nw.FaninIDsOf(id))
			}
			if s.touched.Mark(id) {
				s.touchedIDs = append(s.touchedIDs, id)
				s.lo = min(s.lo, s.r.enum.rank.r[id])
			}
		}
	}
	if sweepCorrupt && s.committed == 1 {
		s.touched.Reset()
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
