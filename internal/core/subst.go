package core

import (
	"cmp"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/cube"
	"repro/internal/mini"
	"repro/internal/network"
)

// Options configure the substitution driver.
type Options struct {
	// Config selects basic / extended / extended+GDC division.
	Config Config
	// POS also tries product-of-sum-form substitution for every pair.
	POS bool
	// MaxPasses bounds the outer sweeps over the network (≤ 0 = 2).
	MaxPasses int
	// MaxDivisorTrials caps how many divisors are tried per dividend after
	// filtering (≤ 0 = 32).
	MaxDivisorTrials int
	// Pool also tries multi-node divisor pooling (Section IV's
	// generalization) when no single divisor yields a gain. Only used by
	// the Extended and ExtendedGDC configurations.
	Pool bool
	// BestGain evaluates every candidate divisor for a node and commits the
	// best one, instead of the paper's first-positive-gain greedy rule. The
	// paper attributes its Table V anomaly (ext+GDC underperforming ext) to
	// the greedy rule; this option exists to measure that explanation
	// (BenchmarkAblationAcceptance).
	BestGain bool
	// WindowDepth, when positive, runs each basic, complement-phase and POS
	// division on a sub-network windowed to the dividend's and divisor's
	// fanin cones of that depth, making the per-trial cost independent of
	// circuit size. Implications in the window are a subset of
	// whole-network implications, so every windowed division remains
	// sound; deep Boolean relationships beyond the window are simply not
	// exploited. Under Basic and Extended the implications stay in the
	// dividend's and divisor's region, which reaches two levels into the
	// window, so every depth ≥ 2 behaves exactly as depth 2. Under
	// ExtendedGDC the windowed basic and complement-phase divisions run
	// global implications with recursive learning inside the window (POS
	// division stays region-local), so a deeper window can prove more.
	// Extended division's divisor decomposition and pooled division always
	// use the whole network.
	WindowDepth int
	// DepthBudget, when positive, rejects any substitution that would push
	// the network's logic depth beyond the budget — the delay-aware mode
	// (substitution reuses deep signals and can otherwise lengthen paths).
	DepthBudget int
	// Workers bounds the batch scheduler's phase-B worker pool: up to this
	// many goroutines each run whole cone-disjoint members' trial sequences
	// against the frozen batch-start network (0 = GOMAXPROCS). The per-node
	// path is strictly serial. The committed network and every Stats
	// counter are identical at any worker count; only wall time changes.
	Workers int
	// Deprecated: ignored. NoSigFilter switched off the simulation-signature
	// divisor prefilter, which was deleted (every candidate now goes
	// straight to its trial). The field stays only because the bdsbench
	// benchmark still sets it.
	NoSigFilter bool
	// NoBatch disables the cone-disjoint batch scheduler (batch.go): every
	// dividend is then planned and committed one node at a time on the
	// serial path, and extra workers stay idle. The scheduler is
	// result-invisible: the committed network is byte-identical with
	// batching on or off, at any worker count (the invariant tests enforce
	// it); only the scheduling statistics and wall time change. Batching is
	// also disabled implicitly for ExtendedGDC (its implications read the
	// whole netlist, so a commit anywhere can change a trial and
	// speculation across commits can never be validated) and under a
	// DepthBudget (commit-time rejection re-opens a node's trial sequence,
	// which only the serial schedule reproduces).
	NoBatch bool
	// Audit runs network.Check after every committed substitution and
	// re-runs every trial on the reference clone path (a full deep clone of
	// the network, full-depth materialized windows, and a netlist rebuilt
	// from scratch per RAR pass), panicking unless the plans match
	// byte-for-byte. The audits are O(network)/O(trial), so this is a
	// debugging/testing mode, not a production default; the integration
	// tests and the fuzz harness enable it.
	Audit bool
	// Clock supplies the wall-clock reads behind Stats.PassTimes (nil =
	// WallClock). Timing is reporting-only — no engine decision reads it —
	// and the seam exists so tests can fake it and so the noclock analyzer
	// can confine real clock reads to the one sanctioned WallClock site.
	Clock Clock

	// noOverlay runs every trial on the reference clone path that Audit
	// replays trials on. The committed network is byte-identical either
	// way; only the Audit replay and this package's tests set it, to
	// compare the default path against the reference.
	noOverlay bool
}

// Stats summarizes a substitution run.
type Stats struct {
	// Substitutions counts accepted divisions (SOP + POS).
	Substitutions int
	// POSSubstitutions counts those performed in product-of-sum form.
	POSSubstitutions int
	// Decompositions counts divisor decompositions (extended division).
	Decompositions int
	// WiresRemoved totals RAR removals in accepted divisions.
	WiresRemoved int
	// LitsBefore/LitsAfter are factored-form literal totals.
	LitsBefore, LitsAfter int
	// DivisorTrials counts exact division plans evaluated: one per
	// candidate the driver reached.
	DivisorTrials int
	// SigFilterReject, SigFilterPass and SigFilterFalsePass are always 0:
	// the simulation-signature divisor prefilter that counted them was
	// removed. They stay only because the bdsbench benchmark reads them.
	SigFilterReject, SigFilterPass, SigFilterFalsePass int
	// DepthRejected counts plans whose commit was undone because the result
	// exceeded Options.DepthBudget.
	DepthRejected int
	// SigCacheHits/SigCacheMisses count lookups of per-node cube literal
	// signatures during candidate filtering.
	SigCacheHits, SigCacheMisses int
	// CacheHits, CacheMisses and CacheInvalidated are always 0: the trial
	// memoization cache that counted them was removed. They stay only
	// because the bdsbench benchmark reads them.
	CacheHits, CacheMisses, CacheInvalidated int
	// ComplCacheHits/ComplCacheMisses count memoized complement-cover
	// lookups (POS and complement-phase filtering).
	ComplCacheHits, ComplCacheMisses int
	// SpeculatedTrials counts trial verdicts the batch scheduler produced
	// speculatively: divisor trials and pooled trials evaluated against a
	// batch-start snapshot before the sweep decided whether their
	// dividend's speculation was still valid.
	SpeculatedTrials int
	// DiscardedPlans counts accepted plans thrown away unused because their
	// member was evicted from the sweep (a conflicting earlier commit
	// invalidated the speculation). The classic wasted-speculation number:
	// work that produced a committable plan the network never saw.
	DiscardedPlans int
	// BatchCommits counts plans committed straight out of a batch sweep
	// (serial re-run commits after an eviction are ordinary Substitutions
	// but not BatchCommits).
	BatchCommits int
	// ConflictEvictions counts members a sweep evicted and re-ran serially
	// because an earlier commit of the same sweep invalidated their
	// batch-start speculation.
	ConflictEvictions int
	// Passes counts completed sweeps over the network.
	Passes int
	// PassTimes records wall time per pass.
	PassTimes []time.Duration
}

// Accumulate folds another run's statistics into s: counters are summed and
// pass times appended. LitsBefore keeps the first accumulated run's value
// (when s is zero) and LitsAfter always tracks the latest run, so a
// multi-call flow reports its end-to-end literal movement.
func (s *Stats) Accumulate(o Stats) {
	if s.Passes == 0 && s.LitsBefore == 0 {
		s.LitsBefore = o.LitsBefore
	}
	s.LitsAfter = o.LitsAfter
	s.Substitutions += o.Substitutions
	s.POSSubstitutions += o.POSSubstitutions
	s.Decompositions += o.Decompositions
	s.WiresRemoved += o.WiresRemoved
	s.DivisorTrials += o.DivisorTrials
	s.DepthRejected += o.DepthRejected
	s.SigCacheHits += o.SigCacheHits
	s.SigCacheMisses += o.SigCacheMisses
	s.ComplCacheHits += o.ComplCacheHits
	s.ComplCacheMisses += o.ComplCacheMisses
	s.SpeculatedTrials += o.SpeculatedTrials
	s.DiscardedPlans += o.DiscardedPlans
	s.BatchCommits += o.BatchCommits
	s.ConflictEvictions += o.ConflictEvictions
	s.Passes += o.Passes
	s.PassTimes = append(s.PassTimes, o.PassTimes...)
}

// Substitute runs Boolean substitution over the whole network with the
// paper's locally greedy acceptance: for each node, divisors are tried in a
// deterministic order and the first division with a positive factored-
// literal gain is committed. Passes repeat until a fixed point (bounded by
// MaxPasses).
//
// Trials are evaluated by the plan/commit engine (see engine.go), one
// candidate at a time per node. The batch scheduler (batch.go) runs the
// trial sequences of cone-disjoint dividends on up to Options.Workers
// goroutines and commits them in one serial sweep, so the result is
// identical to the serial schedule at any worker count.
func Substitute(nw *network.Network, opt Options) Stats {
	maxPasses := opt.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 2
	}
	maxTrials := opt.MaxDivisorTrials
	if maxTrials <= 0 {
		maxTrials = 32
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ev := newEvaluator(workers)
	clk := opt.Clock
	if clk == nil {
		clk = WallClock{}
	}
	st := Stats{LitsBefore: nw.FactoredLits()}

	// Live fanout lists for candidate enumeration and batch cone walks:
	// every commit patches the edges it changes, so no step of the run
	// rebuilds a whole-network adjacency.
	nw.EnableFanouts()
	defer nw.DisableFanouts()

	// The node cache survives across passes: commits invalidate every
	// touched name (the same mechanism that keeps it correct across commits
	// within a pass), so entries for untouched nodes stay valid and the
	// second pass skips their recomputation entirely.
	nc := newNodeCache(nw)

	r := &run{
		nw:        nw,
		opt:       opt,
		maxTrials: maxTrials,
		ev:        ev,
		st:        &st,
		nc:        nc,
	}
	// The cone-disjoint batch scheduler (batch.go) speculates whole groups
	// of cone-disjoint dividends per worker dispatch and commits the
	// surviving plans in one serial sweep, so every in-flight trial is
	// committable work. See Options.NoBatch for when it must stay off.
	if !opt.NoBatch && opt.Config != ExtendedGDC && opt.DepthBudget <= 0 {
		r.sched = newBatchScheduler(r)
	}

	for pass := 0; pass < maxPasses; pass++ {
		passStart := clk.Now()
		changed := false
		// Snapshot the pass's visiting order as dense IDs: the symbol table
		// is append-only and commits only grow the ID space, so an ID keeps
		// resolving to the same signal (or to nil once swept) even as the
		// loop mutates the network — exactly the semantics the name
		// snapshot had, without re-hashing a name per node.
		ids := append([]network.SigID(nil), nw.TopoOrderIDs()...)
		// Work outputs-first: substituting into later nodes first tends to
		// expose more sharing.
		if r.sched != nil {
			r.sched.startPass()
			for i := len(ids) - 1; i >= 0; {
				n, ch := r.sched.runBatch(ids, i)
				changed = changed || ch
				i -= n
			}
		} else {
			for i := len(ids) - 1; i >= 0; i-- {
				if r.substituteNode(ids[i]) {
					changed = true
				}
			}
		}
		st.Passes++
		st.PassTimes = append(st.PassTimes, clk.Since(passStart))
		if !changed {
			break
		}
	}
	st.SigCacheHits, st.SigCacheMisses = nc.sigHits, nc.sigMisses
	st.ComplCacheHits, st.ComplCacheMisses = nc.complHits, nc.complMisses
	st.LitsAfter = nw.FactoredLits()
	ev.release()
	return st
}

// run bundles one Substitute call's live state: the network, the resolved
// options, the evaluator and its node cache. It exists so the per-dividend
// trial-and-commit sequence (substituteNode) is callable from both the
// serial driver loop and the batch scheduler's eviction path.
type run struct {
	nw        *network.Network
	opt       Options
	maxTrials int
	ev        *evaluator
	st        *Stats
	nc        *nodeCache
	enum      enumScratch     // candidateDivisors' stamp arenas (serial side)
	sched     *batchScheduler // nil = batch scheduling off
}

// commit routes a plan through the serial committer; the network's
// version moves with it, which retires every scratch's memoized base build.
// While a batch sweep is active it also folds the commit's touched and
// support sets into the scheduler's conflict marks, so eviction checks for
// later members of the sweep see serial re-run commits too — not only the
// sweep's own plan commits.
func (r *run) commit(p plan) bool {
	s := r.sched
	if s == nil || !s.sweeping {
		return commitPlan(r.nw, p, r.opt, r.nc, r.st)
	}
	touched := s.precommit(&p)
	ok := commitPlan(r.nw, p, r.opt, r.nc, r.st)
	if ok {
		s.postcommit(&p, touched)
	}
	return ok
}

// substituteNode runs the full serial trial-and-commit sequence for one
// dividend — the historical per-node schedule — and reports whether a plan
// committed. The serial driver calls it for every node; the batch
// scheduler calls it for single-member batches and for members its sweep
// evicted.
func (r *run) substituteNode(id network.SigID) bool {
	fn := r.nw.NodeByID(id)
	if fn == nil || fn.Cover.IsZero() {
		return false
	}
	cands := candidateDivisors(r.nw, r.nc, fn.Name, r.opt, &r.enum)
	if len(cands) > r.maxTrials {
		cands = cands[:r.maxTrials]
	}
	return r.runSeq(&trialSeq{f: fn.Name, cands: cands})
}

// runSeq plans dividend t on the serial scratch, against the current
// network, and commits its plans until one sticks.
func (r *run) runSeq(t *trialSeq) bool {
	p, ok := t.advance(r.ev.scratches[0], r.nw, r.opt)
	return r.settle(t, p, ok)
}

// settle commits plan p of sequence t and, while a commit is rejected,
// the plans t offers next; it tallies t's divisor trials and reports
// whether a plan committed.
func (r *run) settle(t *trialSeq, p plan, ok bool) bool {
	committed := false
	for ok && !committed {
		if committed = r.commit(p); !committed {
			p, ok = t.advance(r.ev.scratches[0], r.nw, r.opt)
		}
	}
	r.st.DivisorTrials += t.trials
	return committed
}

// candidate pairs a divisor node with the form that passed the structural
// prefilter: plain SOP, complement-phase SOP (divide by d'), or POS.
//
// The complement covers the form splits are memoized here at enumeration
// time (they are nodeCache results the prefilter computed anyway), so the
// trials skip the per-trial Complement/Minimize recomputation. Safe to
// share: nothing commits between enumeration and this node's trials, the
// covers are never mutated, and Complement/Minimize are deterministic — a
// trial reading the carried cover is byte-identical to one recomputing it.
// The covers are carried by value, so enumeration allocates nothing for
// them. carried=false: divide recomputes them (public one-shot wrappers,
// hand-built candidates in tests).
type candidate struct {
	name string
	id   network.SigID // name's SigID (set by enumeration; rule E2)
	form form

	// dc is d's complement (formCompl) or minimized complement (formPOS);
	// fc is f's minimized complement (formPOS). They are set when carried.
	carried bool
	fc, dc  cube.Cover
}

// nodeCache memoizes, per live node, what candidate enumeration reads: the
// cube literal signatures of the node's cover ((signal, phase) sets for the
// containment prefilter), and its complement cover with that cover's
// minimized form (the covers a POS candidate carries) and signatures. It is
// indexed by the live network's dense SigID (the symbol table is
// append-only, so a node's ID is stable across commits and rebinds to the
// same slot if the name is ever re-added). It lives on the serial side of
// the engine (candidate enumeration and commit); planners never touch it,
// so it needs no locking. The hit/miss counters feed Stats.
type nodeCache struct {
	nw                     *network.Network
	e                      []nodeEntry
	sigHits, sigMisses     int
	complHits, complMisses int
}

// nodeEntry is one node's slot. The has* flags distinguish "never
// computed" from a cached zero value; complBad marks a complement that is
// too big or zero, or a node that is gone.
type nodeEntry struct {
	hasSigs, hasCompl, hasMin, hasComplSigs, complBad bool

	sigs       [][]sigLit
	compl, min cube.Cover
	complSigs  [][]sigLit
}

// sigLit is one literal of a cube signature: the fanin's SigID and its
// phase. Rows are sorted by (SigID, positive first); any total order works
// for the subset tests as long as every row uses the same one, so keying by
// ID instead of name leaves every containment answer unchanged.
type sigLit struct {
	sig network.SigID
	neg bool
}

// newNodeCache returns an empty cache whose entry arena is sized to nw's
// signals, so only the signals a commit adds can regrow it.
func newNodeCache(nw *network.Network) *nodeCache {
	return &nodeCache{nw: nw, e: make([]nodeEntry, 0, nw.NumSigs())}
}

// slot grows the entry arena to cover id and returns its entry.
func (nc *nodeCache) slot(id network.SigID) *nodeEntry {
	for int(id) >= len(nc.e) {
		nc.e = append(nc.e, nodeEntry{})
	}
	return &nc.e[id]
}

// sigs returns node id's cube signatures (nil when id drives no node).
//
//bdslint:hotpath
func (nc *nodeCache) sigs(id network.SigID) [][]sigLit {
	if int(id) < len(nc.e) && nc.e[id].hasSigs {
		nc.sigHits++
		return nc.e[id].sigs
	}
	nc.sigMisses++
	n := nc.nw.NodeByID(id)
	if n == nil {
		return nil
	}
	e := nc.slot(id)
	e.sigs = coverSigs(n.Cover, nc.nw.FaninIDsOf(id))
	e.hasSigs = true
	return e.sigs
}

// complSigs returns the literal signatures of node id's complement cover
// against the node's fanins, memoized with the complement itself (and
// invalidated with it — the fanin list is part of the node state the commit
// touched).
//
//bdslint:hotpath
func (nc *nodeCache) complSigs(id network.SigID) ([][]sigLit, cube.Cover, bool) {
	c, ok := nc.compl(id)
	if !ok {
		return nil, cube.Cover{}, false
	}
	e := nc.slot(id) // compl just cached the complement
	if !e.hasComplSigs {
		e.complSigs = coverSigs(c, nc.nw.FaninIDsOf(id))
		e.hasComplSigs = true
	}
	return e.complSigs, c, true
}

// compl returns node id's complement cover, computing and memoizing it on
// a miss; ok=false when id drives no node or the complement is zero or
// over maxComplementCubes.
//
//bdslint:hotpath
func (nc *nodeCache) compl(id network.SigID) (cube.Cover, bool) {
	if int(id) < len(nc.e) {
		if e := &nc.e[id]; e.complBad {
			nc.complHits++
			return cube.Cover{}, false
		} else if e.hasCompl {
			nc.complHits++
			return e.compl, true
		}
	}
	nc.complMisses++
	n := nc.nw.NodeByID(id)
	if n == nil {
		nc.slot(id).complBad = true
		return cube.Cover{}, false
	}
	c, ok := boundedComplement(n.Cover)
	e := nc.slot(id)
	if !ok {
		e.complBad = true
		return cube.Cover{}, false
	}
	e.compl = c
	e.hasCompl = true
	return c, true
}

// complMin returns node id's minimized complement — the cover formPOS
// division splits — memoized alongside the plain complement. Minimize
// neither writes the cached complement nor returns words of it, so the two
// entries are independent. The returned cover is shared: callers must not
// mutate it.
func (nc *nodeCache) complMin(id network.SigID) (cube.Cover, bool) {
	if int(id) < len(nc.e) && nc.e[id].hasMin {
		return nc.e[id].min, true
	}
	raw, ok := nc.compl(id)
	if !ok {
		return cube.Cover{}, false
	}
	e := nc.slot(id)
	e.min = mini.Minimize(raw, mini.Options{})
	e.hasMin = true
	return e.min, true
}

// invalidate drops the entries of every node p's commit adds or replaces.
// A clone plan's rewrite set is not enumerable from the plan — the pooled
// path's Sweep can delete nodes it never lists — so it drops every entry.
func (nc *nodeCache) invalidate(p *plan) {
	if p.clone != nil {
		clear(nc.e)
		return
	}
	drop := func(ns []*network.Node) {
		for _, n := range ns {
			if id, ok := nc.nw.IDOf(n.Name); ok && int(id) < len(nc.e) {
				nc.e[id] = nodeEntry{}
			}
		}
	}
	drop(p.added)
	drop(p.bodies)
}

// coverSigs returns the literal signature of each cube of cov, whose
// variables are the fanins. The rows share one backing array, so a cover
// costs two allocations however many cubes it has.
func coverSigs(cov cube.Cover, fanins []network.SigID) [][]sigLit {
	out := make([][]sigLit, 0, cov.NumCubes())
	lits := 0
	for _, c := range cov.Cubes {
		lits += c.NumLits()
	}
	all := make([]sigLit, 0, lits)
	for _, c := range cov.Cubes {
		start := len(all)
		for v := 0; v < c.NumVars(); v++ {
			if p := c.Get(v); p == cube.Pos || p == cube.Neg {
				all = append(all, sigLit{fanins[v], p == cube.Neg})
			}
		}
		row := all[start:len(all):len(all)]
		// Stable-by-construction insertion sort on (sig, pos-first); keys
		// are unique (one entry per variable, fanin IDs distinct), so the
		// order matches what any comparison sort produces.
		for i := 1; i < len(row); i++ {
			for j := i; j > 0 && lessSigLit(row[j], row[j-1]); j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
		out = append(out, row)
	}
	return out
}

func lessSigLit(a, b sigLit) bool {
	if a.sig != b.sig {
		return a.sig < b.sig
	}
	return !a.neg
}

// subsetSig reports whether literal set a ⊆ b (both sorted).
func subsetSig(a, b []sigLit) bool {
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// anyContainment reports whether some cube of d (literal-subset) is
// contained in some cube of f — the structural precondition for a non-empty
// SOS split.
func anyContainment(dSigs, fSigs [][]sigLit) bool {
	for _, dc := range dSigs {
		if len(dc) == 0 {
			continue // universal divisor cube: constant; skip
		}
		for _, fc := range fSigs {
			if len(dc) <= len(fc) && subsetSig(dc, fc) {
				return true
			}
		}
	}
	return false
}

// candidateDivisors lists divisor nodes worth trying for f, most-promising
// first: candidates are ordered by shared-support size (descending, then
// name, then form) so the paper's first-positive-gain rule sees the
// likeliest divisors early. The order is deterministic — it is the trial
// order the driver tries them in.
//
// It walks f's transitive fanout into es.tfo and hands the marks to
// enumerateCandidates; the batch scheduler runs its own capped walk and
// calls enumerateCandidates directly. es holds the stamp arenas (nil =
// allocate fresh ones).
func candidateDivisors(nw *network.Network, nc *nodeCache, f string, opt Options, es *enumScratch) []candidate {
	if es == nil {
		es = new(enumScratch)
	}
	fid, _ := nw.IDOf(f)
	es.tfo.Reset()
	es.tfoIDs, _ = nw.AppendFanoutConeIDs(fid, &es.tfo, es.tfoIDs[:0], 0)
	return enumerateCandidates(nw, nc, fid, opt, es, nil)
}

// enumerateCandidates is candidateDivisors' body: it appends f's candidates
// to dst, in trial order, given es.tfo marking exactly f's transitive
// fanout in its current generation.
//
// Enumeration is support-local: only the fanouts of f's fanins are visited,
// minus f's transitive fanout (divisors there would form cycles). That set
// provably holds every candidate: every division form requires
// anyContainment — a non-empty divisor-side cube whose literals are a
// subset of a dividend-side cube's literals. Literal signatures are
// (fanin, phase) pairs drawn from the respective nodes' own fanin lists
// (complement covers keep their node's variable space), so a passing
// candidate shares at least one fanin signal with f and is therefore a
// fanout of one of f's fanins. On a network with live fanout lists (the
// engine enables them for the whole run) the walk costs O(local fanouts).
// The final sort key (overlap, name, form) is total — no two candidates
// compare equal — so the visiting order never shows through;
// TestCandidateEnumerationEquivalence locks the result to a full scan of
// every node.
func enumerateCandidates(nw *network.Network, nc *nodeCache, fid network.SigID, opt Options, es *enumScratch, dst []candidate) []candidate {
	fSigs := nc.sigs(fid)
	fFanins := nw.FaninIDsOf(fid)
	var fcSigs [][]sigLit
	if opt.POS {
		if s, _, ok := nc.complSigs(fid); ok {
			fcSigs = s
		}
	}
	es.cand.Reset()
	es.cand.Mark(fid)
	out := es.scored[:0]
	for _, s := range fFanins {
		for _, u := range nw.FanoutsOf(s) {
			if es.tfo.Marked(u) || !es.cand.Mark(u) {
				continue
			}
			dn := nw.NodeByID(u)
			if dn == nil || dn.Cover.IsZero() || dn.Cover.NumCubes() == 0 {
				continue
			}
			if dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse() {
				continue
			}
			// Support overlap by slice scan: fanin lists are a handful of
			// signals, so linear containment beats building a support set per
			// dividend.
			overlap := 0
			for _, x := range nw.FaninIDsOf(u) {
				for _, y := range fFanins {
					if x == y {
						overlap++
						break
					}
				}
			}
			if anyContainment(nc.sigs(u), fSigs) {
				out = append(out, scored{candidate{name: dn.Name, id: u}, overlap})
			}
			if dcSigs, dcov, ok := nc.complSigs(u); ok {
				// Complement-phase SOP division (f = q·d' + r) — the phase the
				// SIS resub -d baseline exploits.
				if anyContainment(dcSigs, fSigs) {
					out = append(out, scored{candidate{name: dn.Name, id: u, form: formCompl, carried: true, dc: dcov}, overlap})
				}
				if opt.POS && fcSigs != nil && anyContainment(dcSigs, fcSigs) {
					c := candidate{name: dn.Name, id: u, form: formPOS}
					if dcm, ok := nc.complMin(u); ok {
						if fcm, ok := nc.complMin(fid); ok {
							c.carried, c.fc, c.dc = true, fcm, dcm
						}
					}
					out = append(out, scored{c, overlap})
				}
			}
		}
	}
	slices.SortStableFunc(out, compareScored)
	for _, s := range out {
		dst = append(dst, s.c)
	}
	clear(out)
	es.scored = out[:0]
	return dst
}

// enumScratch is candidate enumeration's reusable state: a stamp set for
// the dividend's transitive fanout (with candidateDivisors' walk buffer),
// one for the deduplicated candidate walk, and the scored-candidate buffer.
// Serial side only.
type enumScratch struct {
	tfo, cand network.ConeArena
	tfoIDs    []network.SigID
	scored    []scored
}

// scored is a candidate divisor with its support-overlap score against the
// dividend.
type scored struct {
	c       candidate
	overlap int
}

// compareScored is the full deterministic trial-order key: support overlap
// (descending), then divisor name, then form (plain < complement < POS).
// Overlap alone would leave tie order at the mercy of the candidate
// construction sequence — the stable sort happened to preserve a
// name-then-form order only because SortedNodeNames feeds candidates in
// that order, an invariant nothing enforced. The explicit key makes the
// trial order self-contained (and byte-identical to the historical one).
func compareScored(a, b scored) int {
	if a.overlap != b.overlap {
		return cmp.Compare(b.overlap, a.overlap)
	}
	if a.c.name != b.c.name {
		return strings.Compare(a.c.name, b.c.name)
	}
	return cmp.Compare(a.c.form, b.c.form)
}
