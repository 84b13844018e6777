package core

import (
	"runtime"
	"sort"
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
	// MaxComplementCubes bounds POS complement sizes (0 = default).
	MaxComplementCubes int
	// MaxPasses bounds the outer sweeps over the network (0 = 2).
	MaxPasses int
	// MaxDivisorTrials caps how many divisors are tried per dividend after
	// filtering (0 = 32).
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
	// WindowDepth, when positive, runs each basic/complement/POS division
	// on a sub-network windowed to the dividend's and divisor's fanin cones
	// of that depth, making the per-trial cost independent of circuit size.
	// Implications in the window are a subset of whole-network implications,
	// so every windowed division remains sound; deep Boolean relationships
	// beyond the window are simply not exploited. Extended division (and
	// GDC) always uses the whole network.
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
	// NoSigFilter disables the simulation-signature divisor prefilter. The
	// filter (on by default) skips exact division trials whose signature
	// necessary condition fails — it can only skip trials that would not
	// have produced a committable (positive-gain) plan, so the committed
	// network is bit-identical either way; only the trial count and wall
	// time change (see sigfilter.go).
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
	// NoOverlay disables the copy-on-write trial path: every division trial
	// runs on a full deep clone of the network and every RAR pass rebuilds
	// its netlist from scratch — the historical engine. The overlay path is
	// result-invisible (the committed network is byte-identical with
	// overlays on or off, at any worker count; the invariant tests and the
	// Audit cross-check enforce it), so this is an escape hatch and the
	// audit reference, not a tuning knob.
	NoOverlay bool
	// Audit runs network.Check after every committed substitution and
	// re-runs every overlay-path trial on the deep-clone path, panicking
	// unless the plans match byte-for-byte. The audits are
	// O(network)/O(trial), so this is a debugging/testing mode, not a
	// production default; the integration tests and the fuzz harness
	// enable it.
	Audit bool
	// Clock supplies the wall-clock reads behind Stats.PassTimes (nil =
	// WallClock). Timing is reporting-only — no engine decision reads it —
	// and the seam exists so tests can fake it and so the noclock analyzer
	// can confine real clock reads to the one sanctioned WallClock site.
	Clock Clock
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
	// DivisorTrials counts exact division plans actually evaluated —
	// candidates the signature prefilter rejected are not included (they are
	// counted in SigFilterReject).
	DivisorTrials int
	// SigFilterReject counts candidates the simulation-signature prefilter
	// rejected: trials skipped without building a netlist or running
	// implications. SigFilterPass counts candidates that passed the filter
	// while it was active, and SigFilterFalsePass counts the passed
	// candidates whose exact trial then produced no committable
	// (positive-gain) plan anyway — the filter's false-pass population
	// (passes − false passes yielded a commit-worthy plan).
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
	// DiscardedPlans counts accepted plans thrown away unused — their
	// member was evicted from the sweep (a conflicting earlier commit
	// invalidated the speculation) or its commit failed. The classic
	// wasted-speculation number: work that produced a committable plan the
	// network never saw.
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
	s.SigFilterReject += o.SigFilterReject
	s.SigFilterPass += o.SigFilterPass
	s.SigFilterFalsePass += o.SigFilterFalsePass
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

// FalsePassRate is the fraction of filter-passed candidates whose exact
// trial found no division anyway (0 when the filter never passed anything).
// Low is good: the signature test predicted trial failure well.
func (s *Stats) FalsePassRate() float64 {
	if s.SigFilterPass == 0 {
		return 0
	}
	return float64(s.SigFilterFalsePass) / float64(s.SigFilterPass)
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
	if maxPasses == 0 {
		maxPasses = 2
	}
	maxTrials := opt.MaxDivisorTrials
	if maxTrials == 0 {
		maxTrials = 32
	}
	maxCompl := opt.MaxComplementCubes
	if maxCompl <= 0 {
		maxCompl = DefaultMaxComplementCubes
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

	// Live fanout lists for candidate enumeration, batch cone walks and
	// signature refreshes: every commit patches the edges it changes, so no
	// step of the run rebuilds a whole-network adjacency.
	nw.EnableFanouts()
	defer nw.DisableFanouts()

	// Simulation signatures for the divisor prefilter: enabled on the live
	// network for the duration of the run, refreshed incrementally after
	// commits (only a committed rewrite's transitive fanout is recomputed).
	var sigTab *network.SigTable
	if !opt.NoSigFilter {
		sigTab = nw.EnableSigs()
		defer nw.DisableSigs()
	}

	// The complement and signature caches survive across passes: commits
	// invalidate every touched name (the same mechanism that keeps them
	// correct across commits within a pass), so entries for untouched nodes
	// stay valid and the second pass skips their recomputation entirely.
	cc := newComplCache(maxCompl)
	sigs := newSigCache(nw)

	r := &run{
		nw:        nw,
		opt:       opt,
		maxTrials: maxTrials,
		ev:        ev,
		st:        &st,
		cc:        cc,
		sigs:      sigs,
		sigTab:    sigTab,
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
	st.SigCacheHits = sigs.hits
	st.SigCacheMisses = sigs.misses
	st.ComplCacheHits = cc.hits
	st.ComplCacheMisses = cc.misses
	st.LitsAfter = nw.FactoredLits()
	return st
}

// run bundles one Substitute call's live state: the network, the resolved
// options, the evaluator and its caches. It exists so the per-dividend
// trial-and-commit sequence (substituteNode) is callable from both the
// serial driver loop and the batch scheduler's eviction path.
type run struct {
	nw        *network.Network
	opt       Options
	maxTrials int
	ev        *evaluator
	st        *Stats
	cc        *complCache
	sigs      *sigCache
	sigTab    *network.SigTable
	enum      enumScratch     // candidateDivisors' stamp arenas (serial side)
	sched     *batchScheduler // nil = batch scheduling off
}

// commit routes a plan through the evaluator's serial committer. While a
// batch sweep is active it also folds the commit's touched and support
// sets into the scheduler's conflict marks, so eviction checks for later
// members of the sweep see serial re-run commits too — not only the
// sweep's own plan commits.
func (r *run) commit(p plan, opt Options) bool {
	s := r.sched
	if s == nil || !s.sweeping {
		return r.ev.commit(r.nw, p, opt, r.cc, r.sigs, r.st)
	}
	pre := s.precommit(&p)
	ok := r.ev.commit(r.nw, p, opt, r.cc, r.sigs, r.st)
	if ok {
		s.postcommit(pre)
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
	f := fn.Name
	cands := candidateDivisors(r.nw, r.sigs, r.cc, f, r.opt, &r.enum)
	if len(cands) > r.maxTrials {
		cands = cands[:r.maxTrials]
	}
	// The candidate list above is fixed before filtering: the
	// signature prefilter only short-circuits trials inside it (it
	// never reorders or reveals extra candidates), which is what
	// keeps the committed network identical with the filter off.
	var sf *simSigFilter
	if len(cands) > 0 {
		if r.sigTab != nil {
			r.sigTab.Refresh()
		}
		sf = newSimSigFilter(r.nw, f, r.cc, r.opt)
	}
	return r.tryCandidates(f, cands, sf)
}

// tryCandidates is substituteNode's trial-and-commit loop for dividend f
// over its (truncated) candidate list and signature filter, which the
// caller built against the current network.
func (r *run) tryCandidates(f string, cands []candidate, sf *simSigFilter) bool {
	nw, opt, ev, st := r.nw, r.opt, r.ev, r.st
	// Candidates are tried one at a time in candidate order. The paper's
	// first-positive-gain rule commits the first plan with a positive gain;
	// BestGain plans every candidate first.
	changed := false
	committed := false
	var results []planResult // BestGain only
	for _, c := range cands {
		res := ev.trial(nw, f, c, opt, sf)
		tallyTrial(st, res, sf)
		if opt.BestGain {
			results = append(results, res)
			continue
		}
		if res.ok && res.p.gain > 0 && r.commit(res.p, opt) {
			changed = true
			committed = true
			break // paper: take the first positive-gain division
		}
		// A depth-rejected commit was undone byte-exactly; keep scanning.
	}
	if opt.BestGain {
		// Commit the best gain (ties broken toward the earliest candidate,
		// like the serial scan). When a commit is depth-rejected the
		// next-best positive-gain plan is tried — the rejection was undone
		// byte-exactly, so every other plan is still valid, and abandoning
		// the node outright would make BestGain strictly weaker than the
		// greedy rule under a DepthBudget.
		order := make([]int, 0, len(results))
		for i, res := range results {
			if res.ok && res.p.gain > 0 {
				order = append(order, i)
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			return results[order[a]].p.gain > results[order[b]].p.gain
		})
		for _, i := range order {
			if r.commit(results[i].p, opt) {
				changed = true
				committed = true
				break
			}
		}
	}
	if !committed && opt.Pool && opt.Config != Basic {
		ev.scratches[0].epoch = ev.epoch
		if p, ok := planPooled(ev.scratches[0], nw, f, cands, opt); ok {
			// Pooled divisions historically bypass the depth budget:
			// they only run when nothing else committed.
			poolOpt := opt
			poolOpt.DepthBudget = 0
			if r.commit(p, poolOpt) {
				changed = true
			}
		}
	}
	return changed
}

// tallyTrial folds one candidate slot into the statistics: a filtered slot
// counts as a signature rejection (no exact trial ran); the rest count as
// divisor trials, and — when the filter was active — as filter passes,
// with the failed ones among them recorded as false passes.
//
//bdslint:hotpath
func tallyTrial(st *Stats, r planResult, sf *simSigFilter) {
	if r.filtered {
		st.SigFilterReject++
		return
	}
	st.DivisorTrials++
	if sf != nil {
		st.SigFilterPass++
		if !r.ok || r.p.gain <= 0 {
			st.SigFilterFalsePass++
		}
	}
}

// candidate pairs a divisor node with the form that passed the structural
// prefilter: plain SOP, complement-phase SOP (divide by d'), or POS.
//
// The complement covers the form needs are memoized here at enumeration
// time (they are complCache results the prefilter computed anyway), so the
// parallel trials skip the per-trial Complement/Minimize recomputation.
// Safe to share: nothing commits between enumeration and this node's
// trials, the covers are never mutated, and Complement/Minimize are
// deterministic — a trial reading the carried cover is byte-identical to
// one recomputing it. nil = not prefetched; the divide routines recompute
// (public one-shot wrappers, hand-built candidates in tests).
type candidate struct {
	name string
	pos  bool
	neg  bool

	dCompl    *cube.Cover // d's complement (complement-phase SOP form)
	dComplMin *cube.Cover // minimized d complement (POS form)
	fComplMin *cube.Cover // minimized f complement (POS form)
}

// sigCache caches per-node cube literal signatures ((signal, phase) sets)
// for the containment prefilter, indexed by the live network's dense SigID
// (stable across commits — the symbol table is append-only). Like
// complCache it is only read and written on the serial side of the engine.
type sigCache struct {
	nw           *network.Network
	sigs         [][][]sigLit
	has          []bool
	hits, misses int
}

type sigLit struct {
	sig string
	neg bool
}

func newSigCache(nw *network.Network) *sigCache {
	return &sigCache{nw: nw}
}

//bdslint:hotpath
func (sc *sigCache) get(name string) [][]sigLit {
	id, interned := sc.nw.IDOf(name)
	if interned && int(id) < len(sc.has) && sc.has[id] {
		sc.hits++
		return sc.sigs[id]
	}
	sc.misses++
	n := sc.nw.Node(name)
	if n == nil {
		return nil
	}
	s := coverSigs(n.Cover, n.Fanins)
	for int(id) >= len(sc.has) {
		sc.has = append(sc.has, false)
		sc.sigs = append(sc.sigs, nil)
	}
	sc.sigs[id] = s
	sc.has[id] = true
	return s
}

func (sc *sigCache) invalidate(name string) {
	if id, ok := sc.nw.IDOf(name); ok && int(id) < len(sc.has) {
		sc.has[id] = false
		sc.sigs[id] = nil
	}
}

// reset drops every entry (see complCache.reset).
func (sc *sigCache) reset() {
	for i := range sc.has {
		sc.has[i] = false
		sc.sigs[i] = nil
	}
}

func coverSigs(cov cube.Cover, fanins []string) [][]sigLit {
	out := make([][]sigLit, 0, cov.NumCubes())
	for _, c := range cov.Cubes {
		row := make([]sigLit, 0, c.NumLits())
		for v := 0; v < c.NumVars(); v++ {
			if p := c.Get(v); p == cube.Pos || p == cube.Neg {
				row = append(row, sigLit{fanins[v], p == cube.Neg})
			}
		}
		// Stable-by-construction insertion sort on (sig, pos-first); keys
		// are unique (one entry per variable, fanin names distinct), so the
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
// Enumeration is support-local: only the fanouts of f's fanins are visited,
// minus f's transitive fanout (divisors there would form cycles). That set
// provably holds every candidate: every division form requires
// anyContainment — a non-empty divisor-side cube whose literals are a
// subset of a dividend-side cube's literals. Literal signatures are
// (fanin-name, phase) pairs drawn from the respective nodes' own fanin
// lists (complement covers keep their node's variable space), so a passing
// candidate shares at least one fanin signal with f and is therefore a
// fanout of one of f's fanins. On a network with live fanout lists (the
// engine enables them for the whole run) the walk costs O(local fanouts +
// TFO(f)). The final sort key (overlap, name, form) is total — no two
// candidates compare equal — so the visiting order never shows through;
// TestCandidateEnumerationEquivalence locks the result to a full scan of
// every node. es holds the stamp arenas (nil = allocate fresh ones).
func candidateDivisors(nw *network.Network, sigs *sigCache, cc *complCache, f string, opt Options, es *enumScratch) []candidate {
	if es == nil {
		es = new(enumScratch)
	}
	fSigs := sigs.get(f)
	fn := nw.Node(f)
	var fcSigs [][]sigLit
	if opt.POS {
		if s, _, ok := cc.getSigs(nw, f, fn.Fanins); ok {
			fcSigs = s
		}
	}
	fid, _ := nw.IDOf(f)
	es.tfo.Reset()
	es.tfoIDs, _ = nw.AppendFanoutConeIDs(fid, &es.tfo, es.tfoIDs[:0], 0)
	es.cand.Reset()
	es.cand.Mark(fid)
	var out []scored
	for _, s := range nw.FaninIDsOf(fid) {
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
			d := dn.Name
			// Support overlap by slice scan: fanin lists are a handful of
			// signals, so linear containment beats building a support set per
			// dividend.
			overlap := 0
			for _, x := range dn.Fanins {
				if fn.FaninIndex(x) >= 0 {
					overlap++
				}
			}
			if anyContainment(sigs.get(d), fSigs) {
				out = append(out, scored{candidate{name: d}, overlap})
			}
			if dcSigs, dcov, ok := cc.getSigs(nw, d, dn.Fanins); ok {
				// Complement-phase SOP division (f = q·d' + r) — the phase the
				// SIS resub -d baseline exploits.
				if anyContainment(dcSigs, fSigs) {
					dc := dcov
					out = append(out, scored{candidate{name: d, neg: true, dCompl: &dc}, overlap})
				}
				if opt.POS && fcSigs != nil && anyContainment(dcSigs, fcSigs) {
					c := candidate{name: d, pos: true}
					if dcm, ok := cc.getMin(nw, d); ok {
						if fcm, ok := cc.getMin(nw, f); ok {
							c.dComplMin, c.fComplMin = &dcm, &fcm
						}
					}
					out = append(out, scored{c, overlap})
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return lessScored(out[i], out[j]) })
	cands := make([]candidate, len(out))
	for i, s := range out {
		cands[i] = s.c
	}
	return cands
}

// enumScratch is candidateDivisors' reusable state: a stamp set for the
// dividend's transitive fanout (with the walk's output buffer) and one for
// the deduplicated candidate walk. Serial side only.
type enumScratch struct {
	tfo, cand network.ConeArena
	tfoIDs    []network.SigID
}

// scored is a candidate divisor with its support-overlap score against the
// dividend.
type scored struct {
	c       candidate
	overlap int
}

// lessScored is the full deterministic trial-order key: support overlap
// (descending), then divisor name, then form (plain < complement < POS).
// Overlap alone would leave tie order at the mercy of the candidate
// construction sequence — the stable sort happened to preserve a
// name-then-form order only because SortedNodeNames feeds candidates in
// that order, an invariant nothing enforced. The explicit key makes the
// trial order self-contained (and byte-identical to the historical one).
func lessScored(a, b scored) bool {
	if a.overlap != b.overlap {
		return a.overlap > b.overlap
	}
	if a.c.name != b.c.name {
		return a.c.name < b.c.name
	}
	return formRank(a.c) < formRank(b.c)
}

// formRank orders a divisor's forms for the tie-break: plain SOP division
// first, then complement-phase SOP, then POS.
func formRank(c candidate) int {
	switch {
	case c.neg:
		return 1
	case c.pos:
		return 2
	}
	return 0
}

// commitNode installs a replacement node function, minimizing the cover
// first (a prime irredundant cover keeps the downstream algebraic steps of
// a larger flow effective) and compacting the fanin list.
func commitNode(nw *network.Network, f string, fanins []string, cover cube.Cover) bool {
	m := mini.Minimize(cover, mini.Options{})
	if m.NumCubes() <= cover.NumCubes() && m.NumLits() <= cover.NumLits() {
		cover = m
	}
	if err := nw.ReplaceNodeFunction(f, fanins, cover); err != nil {
		return false
	}
	nw.NormalizeNode(f)
	return true
}

// tryPair plans one candidate and commits it when the gain is positive
// (the paper's first-positive-gain rule), serially. Kept as the one-shot
// entry the tests exercise; Substitute drives planPair/commitPlan through
// the evaluator instead.
func tryPair(nw *network.Network, f string, cand candidate, opt Options, cc *complCache, sigs *sigCache, st *Stats) bool {
	p, ok := planPair(newScratch(), nw, f, cand, opt)
	if !ok || p.gain <= 0 {
		return false
	}
	return commitPlan(nw, p, opt, cc, sigs, st)
}
