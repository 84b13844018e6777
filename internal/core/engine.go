package core

import (
	"fmt"
	"sort"

	"repro/internal/algebraic"
	"repro/internal/cube"
	"repro/internal/network"
)

// This file is the plan/commit substitution engine. Substitution splits
// into two stages:
//
//	planner   — evaluates one (dividend, divisor) trial against a read-only
//	            view of the network (network.Reader) and returns a pure-data
//	            plan. Planners never mutate shared state: a node-form
//	            division patches f into a per-worker netlist, a
//	            whole-network rewrite edits a private overlay or clone, and
//	            per-worker scratch arenas hold all reusable buffers. Plans
//	            are therefore evaluable concurrently (the batch scheduler's
//	            phase B).
//	committer — applies the chosen plan to the live network serially,
//	            invalidates the pass caches, enforces the depth budget, and
//	            updates statistics.
//
// The per-node driver (run.substituteNode) is the paper's serial greedy
// loop: it plans the candidates one at a time in the deterministic
// candidate order and commits the first positive-gain plan (or, under
// Options.BestGain, plans them all and commits the best). A depth-rejected
// commit is undone byte-exactly (the node's previous fanins/cover, or a
// whole-network snapshot, are restored verbatim), so the remaining plans of
// the node stay valid against the state they were evaluated on.

// plan is one evaluated division candidate, as pure data: the gain it
// achieves and the replacement that realizes it. Exactly one of the two
// replacement shapes is set: a node-function rewrite (newFanins/newCover,
// for basic, complement-phase, and POS division) or a whole-network rewrite
// (work/touched, for extended division's divisor decomposition and for
// pooled division).
type plan struct {
	target  string // dividend node the plan rewrites
	divisor string // divisor the plan used (informational)
	gain    int    // factored-literal gain (positive = smaller)
	pos     bool   // plan is a POS-form substitution
	dec     bool   // plan decomposes the divisor
	removed int    // RAR wire removals performed by the division

	// Node-function rewrite (work == nil).
	newFanins []string
	newCover  cube.Cover

	// Whole-network rewrite: commit applies work to the live network —
	// extracting the delta when work is an overlay, copying wholesale when it
	// is a deep clone — and invalidates the touched node names in the pass
	// caches.
	work    trialNet
	touched []string
}

// isNode reports whether the plan is a node-function rewrite.
func (p *plan) isNode() bool { return p.work == nil }

// planPair evaluates one (dividend, divisor) division in the given form
// against a read-only view of the network, without committing anything.
// ok=false when no division exists. planPair is pure: it is safe to call
// concurrently on the same Reader as long as each call owns its scratch.
//
// planPair pins nw as the scratch's live reader — enabling the memoized
// shared base build every node-form trial of the epoch patches — and, under
// Options.Audit, re-runs the whole trial on the historical deep-clone path
// and panics unless the two plans agree byte-for-byte.
//
//bdslint:hotpath
func planPair(sc *scratch, nw network.Reader, f string, cand candidate, opt Options) (plan, bool) {
	sc.noOverlay = opt.noOverlay
	sc.pin = nw
	p, ok := planPairImpl(sc, nw, f, cand, opt)
	if opt.Audit && !opt.noOverlay {
		//bdslint:ignore hotalloc Audit-only branch: the label and re-trial closure exist only in the testing/debug cross-check mode
		auditOverlayTrial(sc, p, ok, fmt.Sprintf("f=%s d=%s", f, cand.name), func(aopt Options) (plan, bool) {
			return planPairImpl(sc, nw, f, cand, aopt)
		}, opt)
	}
	return p, ok
}

// overlayAuditCorrupt, when set (tests only), mutates the overlay-path plan
// before the audit comparison — the corruption-injection seam proving the
// Audit cross-check actually fires on a divergent trial.
var overlayAuditCorrupt func(*plan)

// auditOverlayTrial re-runs a trial with overlays disabled (the historical
// deep-clone engine) and panics unless the overlay-path plan matches the
// clone-path plan byte-for-byte. O(trial) — Options.Audit is a
// testing/debugging mode.
func auditOverlayTrial(sc *scratch, got plan, gotOK bool, site string, run func(Options) (plan, bool), opt Options) {
	aopt := opt
	aopt.noOverlay = true
	aopt.Audit = false
	sc.noOverlay = true
	want, wantOK := run(aopt)
	sc.noOverlay = opt.noOverlay
	if overlayAuditCorrupt != nil {
		overlayAuditCorrupt(&got)
	}
	if err := comparePlans(got, gotOK, want, wantOK); err != nil {
		panic(fmt.Sprintf("core: overlay audit: %s: %v", site, err))
	}
}

// comparePlans reports the first divergence between an overlay-path plan
// and its clone-path reference, or nil when they agree.
func comparePlans(got plan, gotOK bool, want plan, wantOK bool) error {
	if gotOK != wantOK {
		return fmt.Errorf("overlay ok=%v, clone ok=%v", gotOK, wantOK)
	}
	if !gotOK {
		return nil
	}
	if got.gain != want.gain {
		return fmt.Errorf("overlay gain=%d, clone gain=%d", got.gain, want.gain)
	}
	if got.pos != want.pos || got.dec != want.dec || got.removed != want.removed {
		return fmt.Errorf("overlay form (pos=%v dec=%v removed=%d) != clone (pos=%v dec=%v removed=%d)",
			got.pos, got.dec, got.removed, want.pos, want.dec, want.removed)
	}
	if got.isNode() != want.isNode() {
		return fmt.Errorf("overlay isNode=%v, clone isNode=%v", got.isNode(), want.isNode())
	}
	if got.isNode() {
		if err := compareNodeFn(got.newFanins, got.newCover, want.newFanins, want.newCover); err != nil {
			return fmt.Errorf("node rewrite: %v", err)
		}
		return nil
	}
	// Every node of the two working networks, in creation order: a pooled
	// plan names no divisor, and a rewrite may touch nodes beyond the pair.
	gn, wn := got.work.Nodes(), want.work.Nodes()
	if len(gn) != len(wn) {
		return fmt.Errorf("work node count %d != clone %d", len(gn), len(wn))
	}
	for i := range gn {
		if gn[i].Name != wn[i].Name {
			return fmt.Errorf("work node %d: %q != clone %q", i, gn[i].Name, wn[i].Name)
		}
		if err := compareNodeFn(gn[i].Fanins, gn[i].Cover, wn[i].Fanins, wn[i].Cover); err != nil {
			return fmt.Errorf("work node %q: %v", gn[i].Name, err)
		}
	}
	return nil
}

func compareNodeFn(gotFanins []string, gotCover cube.Cover, wantFanins []string, wantCover cube.Cover) error {
	if len(gotFanins) != len(wantFanins) {
		return fmt.Errorf("fanin count %d != %d", len(gotFanins), len(wantFanins))
	}
	for i := range gotFanins {
		if gotFanins[i] != wantFanins[i] {
			return fmt.Errorf("fanin %d: %q != %q", i, gotFanins[i], wantFanins[i])
		}
	}
	if gotCover.NumVars() != wantCover.NumVars() || gotCover.NumCubes() != wantCover.NumCubes() {
		return fmt.Errorf("cover shape %dv/%dc != %dv/%dc",
			gotCover.NumVars(), gotCover.NumCubes(), wantCover.NumVars(), wantCover.NumCubes())
	}
	for i := range gotCover.Cubes {
		if !gotCover.Cubes[i].Equal(wantCover.Cubes[i]) {
			return fmt.Errorf("cube %d differs", i)
		}
	}
	return nil
}

// planPairImpl is planPair's trial body; sc.noOverlay/sc.pin are set by the
// wrapper.
func planPairImpl(sc *scratch, nw network.Reader, f string, cand candidate, opt Options) (plan, bool) {
	d := cand.name
	fn := nw.Node(f)
	fid, _ := nw.IDOf(f)
	did, _ := nw.IDOf(d)
	costBefore := sc.factorLits(fid, fn.Cover)
	// Windowed division: bound the sub-network the basic, complement and
	// POS divisions see. The reference paths materialize the window as a
	// network (see windowFor); the default path carves it as ID lists of
	// nw, no deeper than a region-local trial can see (regionReach).
	nwd := nw
	var win *window
	if depth := opt.WindowDepth; depth > 0 {
		if opt.noOverlay || opt.Config == ExtendedGDC {
			nwd = windowFor(sc, nw, f, d, depth)
		} else {
			win = sc.win.carve(nw, fid, did, min(depth, regionReach))
		}
	}

	nodePlan := func(res *DivideResult, pos bool) plan {
		return plan{
			target:    f,
			divisor:   d,
			gain:      costBefore - algebraic.FactorLits(res.Cover),
			pos:       pos,
			removed:   res.WiresRemoved,
			newFanins: res.Fanins,
			newCover:  res.Cover,
		}
	}

	if cand.neg {
		res, ok := basicDivideCompl(sc, nwd, win, f, d, opt.Config, opt.MaxComplementCubes, cand.dCompl)
		if !ok {
			return plan{}, false
		}
		return nodePlan(res, false), true
	}
	if cand.pos {
		res, ok := posDivide(sc, nwd, win, f, d, opt.Config, opt.MaxComplementCubes, cand.fComplMin, cand.dComplMin)
		if !ok {
			return plan{}, false
		}
		return nodePlan(res, true), true
	}

	switch opt.Config {
	case Basic:
		res, ok := basicDivide(sc, nwd, win, f, d, opt.Config)
		if !ok {
			return plan{}, false
		}
		return nodePlan(res, false), true

	default: // Extended / ExtendedGDC
		dn := nw.Node(d)
		before := costBefore + sc.factorLits(did, dn.Cover)

		// Extended division generalizes basic division; evaluate both and
		// keep the better (the core-selection heuristic can otherwise pick
		// a decomposition where the whole divisor would gain more).
		extGain := -1 << 30
		var extWork trialNet
		var extRes *DivideResult
		var extDec *Decomposition
		if work, res, dec, ok := extendedDivide(sc, nw, f, d, opt.Config); ok {
			after := algebraic.FactorLits(work.Node(f).Cover) + algebraic.FactorLits(work.Node(d).Cover)
			if dec != nil {
				after += algebraic.FactorLits(work.Node(dec.CoreName).Cover)
			}
			extGain = before - after
			extWork, extRes, extDec = work, res, dec
		}
		basicGain := -1 << 30
		var basicRes *DivideResult
		if res, ok := basicDivide(sc, nwd, win, f, d, opt.Config); ok {
			basicGain = costBefore - algebraic.FactorLits(res.Cover)
			basicRes = res
		}
		if basicRes == nil && extWork == nil {
			return plan{}, false
		}
		if basicGain >= extGain {
			p := nodePlan(basicRes, false)
			p.gain = basicGain
			return p, true
		}
		return plan{
			target:  f,
			divisor: d,
			gain:    extGain,
			dec:     extDec != nil,
			removed: extRes.WiresRemoved,
			work:    extWork,
			touched: []string{f, d},
		}, true
	}
}

// planPooled evaluates one multi-node pooled extended division for f using
// up to four of the SOP candidates as the divisor pool. Like planPair it is
// pure; ok=false when no pooled division with positive total gain (f plus
// any created/rewritten nodes) exists. Like planPair it pins nw for the
// shared base build and cross-checks the clone path under Options.Audit.
func planPooled(sc *scratch, nw network.Reader, f string, cands []candidate, opt Options) (plan, bool) {
	sc.noOverlay = opt.noOverlay
	sc.pin = nw
	p, ok := planPooledImpl(sc, nw, f, cands, opt)
	if opt.Audit && !opt.noOverlay {
		auditOverlayTrial(sc, p, ok, "pooled f="+f, func(aopt Options) (plan, bool) {
			return planPooledImpl(sc, nw, f, cands, aopt)
		}, opt)
	}
	return p, ok
}

// planPooledImpl is planPooled's trial body. The candidate dedup and the
// touched-name set are plain slice scans: the pool is capped at four
// entries, so linear containment beats hashing and the bookkeeping
// allocates nothing beyond the name lists the plan carries anyway.
func planPooledImpl(sc *scratch, nw network.Reader, f string, cands []candidate, opt Options) (plan, bool) {
	var pool []string
	for _, c := range cands {
		if c.pos || c.neg || indexOf(pool, c.name) >= 0 {
			continue
		}
		pool = append(pool, c.name)
		if len(pool) == 4 {
			break
		}
	}
	if len(pool) < 2 {
		return plan{}, false
	}
	fn := nw.Node(f)
	before := algebraic.FactorLits(fn.Cover)
	names := make([]string, 0, len(pool)+2)
	names = append(names, f)
	for _, d := range pool {
		before += algebraic.FactorLits(nw.Node(d).Cover)
		names = append(names, d)
	}
	work, res, dec, ok := pooledExtendedDivide(sc, nw, f, pool, opt.Config)
	if !ok {
		return plan{}, false
	}
	after := 0
	if dec != nil && work.Node(dec.CoreName) != nil {
		after += algebraic.FactorLits(work.Node(dec.CoreName).Cover)
	}
	for _, name := range names {
		if n := work.Node(name); n != nil {
			after += algebraic.FactorLits(n.Cover)
		}
	}
	if dec != nil {
		names = append(names, dec.CoreName)
	}
	if before-after <= 0 {
		return plan{}, false
	}
	sort.Strings(names)
	return plan{
		target:  f,
		gain:    before - after,
		dec:     dec != nil,
		removed: res.WiresRemoved,
		work:    work,
		touched: names,
	}, true
}

// commitPlan is the serial committer: it applies a plan to the live
// network, invalidates the pass caches for every name the plan touches,
// enforces the depth budget when set (undoing the commit byte-exactly on
// violation), and updates statistics. Returns whether the plan stuck.
func commitPlan(nw *network.Network, p plan, opt Options, cc *complCache, sigs *sigCache, st *Stats) bool {
	invalidate := func() {
		if p.isNode() {
			cc.invalidate(nw, p.target)
			sigs.invalidate(p.target)
			return
		}
		if ov, ok := p.work.(*network.Overlay); ok {
			// The overlay's recorded delta is the complete rewrite set —
			// p.touched is only the {f, d} summary and extended division can
			// rewrite nodes beyond the pair. A name missed here keeps a
			// complement cover cached over its OLD fanin space, and the next
			// candidate enumeration indexes the new (shorter) fanin list with
			// it.
			for _, n := range ov.Added() {
				cc.invalidate(nw, n.Name)
				sigs.invalidate(n.Name)
			}
			for _, n := range ov.Changed() {
				cc.invalidate(nw, n.Name)
				sigs.invalidate(n.Name)
			}
			return
		}
		// Clone commit (CopyFrom): the rewrite set is not enumerable from
		// the plan — the pooled path's Sweep can delete dead nodes p.touched
		// never lists — so drop everything.
		cc.reset()
		sigs.reset()
	}

	if p.isNode() {
		// Snapshot for undo only when a depth budget can reject the commit.
		var oldFanins []string
		var oldCover cube.Cover
		if opt.DepthBudget > 0 {
			old := nw.Node(p.target)
			oldFanins = append([]string(nil), old.Fanins...)
			oldCover = old.Cover.Clone()
		}
		if !commitNode(nw, p.target, p.newFanins, p.newCover) {
			return false
		}
		invalidate()
		if opt.DepthBudget > 0 {
			if _, depth := nw.Levels(); depth > opt.DepthBudget {
				_ = nw.ReplaceNodeFunction(p.target, oldFanins, oldCover)
				invalidate()
				st.DepthRejected++
				return false
			}
		}
	} else {
		var snapshot *network.Network
		if opt.DepthBudget > 0 {
			snapshot = nw.Clone()
		}
		// An overlay plan commits by applying its recorded delta to the live
		// network — byte-identical to copying a materialized clone, but
		// O(delta). A clone plan (the reference path, or pooled division's
		// cross-node path, which needs Sweep) still commits by wholesale
		// copy.
		if ov, ok := p.work.(*network.Overlay); ok {
			if err := ov.ApplyTo(nw); err != nil {
				panic("core: overlay commit: " + err.Error())
			}
		} else {
			nw.CopyFrom(p.work.(*network.Network))
		}
		invalidate()
		if opt.DepthBudget > 0 {
			if _, depth := nw.Levels(); depth > opt.DepthBudget {
				nw.CopyFrom(snapshot)
				invalidate()
				st.DepthRejected++
				return false
			}
		}
	}

	st.Substitutions++
	if p.pos {
		st.POSSubstitutions++
	}
	if p.dec {
		st.Decompositions++
	}
	st.WiresRemoved += p.removed
	if opt.Audit {
		// Post-commit structural audit (Options.Audit): every committed
		// substitution must leave the network Check-clean. A violation here
		// is an engine bug, never an input problem, so it panics.
		if err := nw.Check(); err != nil {
			panic("core: post-commit audit: " + err.Error())
		}
	}
	return true
}

// planResult is the outcome of one candidate slot.
type planResult struct {
	p  plan
	ok bool
}

// evaluator owns the planner scratch arenas and the commit epoch. The
// serial per-node path plans on scratches[0]; only the batch scheduler's
// phase B (batch.go) fans members out over all workers, one scratch per
// worker.
type evaluator struct {
	workers   int
	scratches []*scratch
	// epoch counts live-network mutation attempts. Each scratch tags its
	// memoized shared base build with the epoch it was built in (see
	// scratch.baseBuild), so no base is ever patched after the network it
	// snapshots may have changed. Even a depth-rejected commit — undone
	// byte-exactly — bumps it: one redundant rebuild is cheaper than
	// reasoning about undo fidelity here.
	epoch uint64
}

func newEvaluator(workers int) *evaluator {
	if workers < 1 {
		workers = 1
	}
	ev := &evaluator{workers: workers, scratches: make([]*scratch, workers)}
	for i := range ev.scratches {
		ev.scratches[i] = newScratch()
	}
	return ev
}

// trial evaluates one candidate against nw on the serial scratch.
func (ev *evaluator) trial(nw *network.Network, f string, c candidate, opt Options) planResult {
	sc := ev.scratches[0]
	sc.epoch = ev.epoch
	p, ok := planPair(sc, nw, f, c, opt)
	return planResult{p: p, ok: ok}
}

// commit applies a plan through commitPlan, bumping the epoch first so every
// scratch's memoized base build of the live network is invalidated before
// the network can change.
func (ev *evaluator) commit(nw *network.Network, p plan, opt Options, cc *complCache, sigs *sigCache, st *Stats) bool {
	ev.epoch++
	return commitPlan(nw, p, opt, cc, sigs, st)
}
