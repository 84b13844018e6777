package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/algebraic"
	"repro/internal/cube"
	"repro/internal/mini"
	"repro/internal/network"
)

// This file is the plan/commit substitution engine. Substitution splits
// into two stages:
//
//	planner   — evaluates one (dividend, divisor) trial against a read-only
//	            view of the network (network.Reader) and returns a plan:
//	            plain data, the node bodies its commit installs. Planners
//	            never mutate shared state: a division patches its new
//	            bodies into a per-worker netlist, a pooled cross-node core
//	            sweeps a private clone, and per-worker scratch arenas hold
//	            all reusable buffers. Plans are therefore evaluable
//	            concurrently (the batch scheduler's phase B).
//	committer — installs the chosen plan in the live network serially,
//	            invalidates the node cache, and updates statistics.
//
// One routine plans a dividend (trialSeq): the paper's serial greedy scan
// over the candidates in the deterministic candidate order, stopping at the
// first positive-gain plan (or, under Options.BestGain, planning them all
// and keeping the first of the largest gains), then, when no slot gained,
// the pooled fallback. The serial driver (run.substituteNode) and batch
// phase B both run it once, and the committer installs the plan it returns.

// plan is one evaluated division candidate as plain data: the gain it
// achieves and the node bodies its commit installs.
//
//   - A node-form plan (basic, complement-phase or POS division) replaces f
//     alone: bodies[0] is f's division, raw as planned; once the plan is
//     chosen, finish replaces it with the body the commit installs. On
//     the default path the body of a plan without gain, which no caller
//     commits, is the scratch's own and valid only until its next division
//     (see trialArena.body).
//   - An extended plan holds the node its decomposition adds (the core)
//     and the final bodies of the nodes it replaces, d and then f. When
//     the core is the whole divisor, bodies is f's normalized basic
//     division (wholePlan).
//   - A pooled cross-node plan, whose trial sweeps its working network,
//     holds that whole network in clone instead; the commit copies it.
type plan struct {
	target  string // dividend node the plan rewrites
	gain    int    // factored-literal gain (positive = smaller)
	node    bool   // plan is node-form
	pos     bool   // plan is a POS-form substitution
	dec     bool   // plan decomposes the divisor
	removed int    // RAR wire removals performed by the division

	added  []*network.Node // nodes the commit creates, in creation order
	bodies []*network.Node // final bodies of the nodes the commit replaces
	clone  *network.Network
}

// finish turns a chosen node-form plan's division into the body the
// committed node reads: the minimized cover when it is no larger (a prime
// irredundant cover keeps the downstream algebraic steps of a larger flow
// effective), without the fanins it no longer reads. Other plans are final
// as planned.
func (p *plan) finish() {
	if !p.node {
		return
	}
	b := p.bodies[0]
	cover := b.Cover
	if m := mini.Minimize(cover, mini.Options{}); m.NumCubes() <= cover.NumCubes() && m.NumLits() <= cover.NumLits() {
		cover = m
	}
	b.Fanins, b.Cover = network.Normalize(b.Fanins, cover)
}

// installed returns the network p's commit leaves when applied to nw: its
// clone, or a clone of nw with its bodies installed.
func installed(nw network.Reader, p plan) *network.Network {
	if p.clone != nil {
		return p.clone
	}
	c := nw.Clone()
	c.Install(p.added, p.bodies)
	return c
}

// planPair evaluates one (dividend, divisor) division in the given form
// against a read-only view of the network, without committing anything.
// ok=false when no division exists. planPair is pure: it is safe to call
// concurrently on the same Reader as long as each call owns its scratch.
//
// planPair pins nw as the scratch's live reader — enabling the memoized
// shared base build every unwindowed trial at nw's version patches — and,
// under Options.Audit, re-runs the whole trial on the reference path and
// panics unless the two plans agree byte-for-byte, and re-plans a refused
// POS division without the literal floor (auditFloor).
//
//bdslint:hotpath
func planPair(sc *scratch, nw network.Reader, f string, cand candidate, opt Options) (plan, bool) {
	sc.reference = opt.reference
	sc.pin = nw
	p, ok := planPairImpl(sc, nw, f, cand, opt)
	if opt.Audit && !opt.reference {
		//bdslint:ignore hotalloc Audit-only branch: the label and re-trial closure exist only in the testing/debug cross-check mode
		auditReferenceTrial(sc, nw, p, ok, fmt.Sprintf("f=%s d=%s", f, cand.name), func(aopt Options) (plan, bool) {
			return planPairImpl(sc, nw, f, cand, aopt)
		}, opt)
		if !ok && cand.form == formPOS {
			auditFloor(sc, nw, f, cand, opt)
		}
	}
	return p, ok
}

// auditFloor re-plans a POS division that planned nothing with the literal
// floor off, and panics if that plan gains: the floor may refuse only
// divisions that cannot gain (see posFloorRefuses). A division refused for
// any other reason re-plans to nothing again.
func auditFloor(sc *scratch, nw network.Reader, f string, cand candidate, opt Options) {
	sc.noFloor = true
	p, ok := planPairImpl(sc, nw, f, cand, opt)
	sc.noFloor = false
	if ok && p.gain > 0 {
		panic(fmt.Sprintf("core: literal-floor audit: f=%s d=%s: the floor refused a POS division that gains %d", f, cand.name, p.gain))
	}
}

// referenceAuditCorrupt, when set (tests only), mutates the default-path
// plan before the audit comparison — the corruption-injection seam proving
// the Audit cross-check actually fires on a divergent trial.
var referenceAuditCorrupt func(*plan)

// auditReferenceTrial re-runs a trial on the reference path (the
// historical deep-clone engine) and panics unless the default-path plan
// matches the reference plan byte-for-byte. O(trial) — Options.Audit is a
// testing/debugging mode.
func auditReferenceTrial(sc *scratch, nw network.Reader, got plan, gotOK bool, site string, run func(Options) (plan, bool), opt Options) {
	aopt := opt
	aopt.reference = true
	aopt.Audit = false
	sc.reference = true
	want, wantOK := run(aopt)
	sc.reference = opt.reference
	if referenceAuditCorrupt != nil {
		referenceAuditCorrupt(&got)
	}
	if err := comparePlans(nw, got, gotOK, want, wantOK); err != nil {
		panic(fmt.Sprintf("core: reference audit: %s: %v", site, err))
	}
}

// comparePlans reports the first divergence between a default-path plan
// and its reference, or nil when they agree. Two body plans are compared
// body by body; otherwise both are compared as the networks their commits
// would leave on nw, node by node in creation order: a pooled plan names
// no divisor, and a rewrite may touch nodes beyond the pair.
func comparePlans(nw network.Reader, got plan, gotOK bool, want plan, wantOK bool) error {
	if gotOK != wantOK {
		return fmt.Errorf("ok=%v, reference ok=%v", gotOK, wantOK)
	}
	if !gotOK {
		return nil
	}
	if got.gain != want.gain {
		return fmt.Errorf("gain=%d, reference gain=%d", got.gain, want.gain)
	}
	if got.node != want.node || got.pos != want.pos || got.dec != want.dec || got.removed != want.removed {
		return fmt.Errorf("form (node=%v pos=%v dec=%v removed=%d) != reference (node=%v pos=%v dec=%v removed=%d)",
			got.node, got.pos, got.dec, got.removed, want.node, want.pos, want.dec, want.removed)
	}
	gn, wn := slices.Concat(got.added, got.bodies), slices.Concat(want.added, want.bodies)
	if got.clone != nil || want.clone != nil {
		gn, wn = installed(nw, got).Nodes(), installed(nw, want).Nodes()
	}
	if len(gn) != len(wn) {
		return fmt.Errorf("node count %d != reference %d", len(gn), len(wn))
	}
	for i := range gn {
		if gn[i].Name != wn[i].Name {
			return fmt.Errorf("node %d: %q != reference %q", i, gn[i].Name, wn[i].Name)
		}
		if err := compareNodeFn(gn[i].Fanins, gn[i].Cover, wn[i].Fanins, wn[i].Cover); err != nil {
			return fmt.Errorf("node %q: %v", gn[i].Name, err)
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

// planPairImpl is planPair's trial body; sc.reference/sc.pin are set by the
// wrapper.
func planPairImpl(sc *scratch, nw network.Reader, f string, cand candidate, opt Options) (plan, bool) {
	d := cand.name
	fn := nw.Node(f)
	costBefore := algebraic.FactorLits(fn.Cover)
	// Windowed division: bound the sub-network the basic, complement and
	// POS divisions see. The reference path materializes the window as a
	// network (see windowFor); the default path carves it as ID lists of
	// nw, no deeper than a region-local trial can see (regionReach) unless
	// the trial runs ExtendedGDC's global implications.
	nwd := nw
	var win *window
	if depth := opt.WindowDepth; depth > 0 {
		if opt.reference {
			nwd = windowFor(sc, nw, f, d, depth)
		} else {
			if opt.Config != ExtendedGDC || cand.form == formPOS {
				depth = min(depth, regionReach)
			}
			fid, _ := nw.IDOf(f)
			did, _ := nw.IDOf(d)
			win = sc.win.carve(nw, fid, did, depth)
		}
	}

	// nodePlan is the plan of a node-form division. On the default path
	// the division lives in the scratch's trial memory, so only a plan that
	// gains, the one a caller may keep, copies it out as its body; any
	// other plan's body stays there. The reference path's division is
	// heap-built already.
	nodePlan := func(res DivideResult) plan {
		p := plan{
			target:  f,
			gain:    costBefore - algebraic.FactorLits(res.Cover),
			node:    true,
			pos:     res.POS,
			removed: res.WiresRemoved,
		}
		if p.gain <= 0 && !sc.reference {
			p.bodies = sc.trial.body(f, res)
			return p
		}
		if p.gain > 0 {
			res.keep()
		}
		p.bodies = []*network.Node{{Name: f, Fanins: res.Fanins, Cover: res.Cover}}
		return p
	}

	if cand.form != formSOP || opt.Config == Basic {
		res, ok := divide(sc, nwd, win, f, cand, opt.Config, costBefore)
		if !ok {
			return plan{}, false
		}
		return nodePlan(res), true
	}

	// Extended / ExtendedGDC SOP: extended division generalizes basic
	// division; evaluate both and keep the better (the core-selection
	// heuristic can otherwise pick a decomposition where the whole divisor
	// would gain more).
	var ext plan
	hasExt := false
	x, ok := extendedDivide(sc, nw, f, d, opt.Config)
	switch {
	case ok && x.whole == "":
		before := costBefore + algebraic.FactorLits(nw.Node(d).Cover)
		after := algebraic.FactorLits(x.node(nw, f).Cover) + algebraic.FactorLits(x.node(nw, d).Cover) +
			algebraic.FactorLits(x.node(nw, x.dec.CoreName).Cover)
		ext = plan{target: f, gain: before - after, dec: true, removed: x.res.WiresRemoved}
		x.setPlan(&ext)
		hasExt = true
	case ok && opt.WindowDepth > 0:
		// A whole-divisor core makes extended division the basic division
		// of f by d. Unwindowed, that is the division below, whose plan
		// keeps every tie; in a window, the whole-network division can
		// prove more than the windowed one, so it runs on its own.
		ext, _, hasExt = wholePlan(sc, nw, f, d, opt.Config)
	}
	res, ok := divide(sc, nwd, win, f, cand, opt.Config, costBefore)
	if !ok {
		return ext, hasExt
	}
	if p := nodePlan(res); !hasExt || p.gain >= ext.gain {
		return p, true
	}
	return ext, true
}

// planPooled evaluates one multi-node pooled extended division for f using
// up to poolSize of the SOP candidates as the divisor pool. Like planPair
// it is pure; ok=false when no pooled division with positive total gain (f
// plus any created/rewritten nodes) exists. Like planPair it pins nw for the
// shared base build and cross-checks the reference path under
// Options.Audit.
//
// A core from one pool node d makes the pooled division d's own extended
// division of f, which f's trial sequence has already planned in its SOP
// slot for d: the unchanged pool covers cancel out of the pooled gain,
// leaving that division's gain, and the slot's plan — the better of it and
// the basic division, which a whole-divisor core at WindowDepth 0 is —
// gained at least as much. The fallback runs only when no slot gained, so
// such a core gains nothing and plans nothing.
func planPooled(sc *scratch, nw network.Reader, f string, cands []candidate, opt Options) (plan, bool) {
	sc.reference = opt.reference
	sc.pin = nw
	p, ok := planPooledImpl(sc, nw, f, cands, opt)
	if opt.Audit && !opt.reference {
		auditReferenceTrial(sc, nw, p, ok, "pooled f="+f, func(aopt Options) (plan, bool) {
			return planPooledImpl(sc, nw, f, cands, aopt)
		}, opt)
	}
	return p, ok
}

// poolSize is the most divisor nodes one pooled division pools.
const poolSize = 4

// poolCandidate reports whether cands[i] joins the divisor pool of a
// pooled division over cands: the pool is the first poolSize distinct SOP
// candidates.
func poolCandidate(cands []candidate, i int) bool {
	c := cands[i]
	if c.form != formSOP {
		return false
	}
	for _, p := range cands[:i] {
		if p.form == formSOP && p.name == c.name {
			return false
		}
	}
	return true
}

// planPooledImpl is planPooled's trial body. The candidate dedup and the
// costed-name list are plain slice scans: the pool is capped at poolSize
// entries, so linear containment beats hashing.
func planPooledImpl(sc *scratch, nw network.Reader, f string, cands []candidate, opt Options) (plan, bool) {
	var pool []string
	for i := range cands {
		if !poolCandidate(cands, i) {
			continue
		}
		pool = append(pool, cands[i].name)
		if len(pool) == poolSize {
			break
		}
	}
	if len(pool) < 2 {
		return plan{}, false
	}
	x, single, ok := pooledExtendedDivide(sc, nw, f, pool, opt.Config)
	if !ok || single != "" {
		return plan{}, false // a single-node core: see planPooled
	}
	before := algebraic.FactorLits(nw.Node(f).Cover)
	for _, d := range pool {
		before += algebraic.FactorLits(nw.Node(d).Cover)
	}
	after := 0
	for _, name := range append([]string{f, x.dec.CoreName}, pool...) {
		if n := x.node(nw, name); n != nil {
			after += algebraic.FactorLits(n.Cover)
		}
	}
	if before-after <= 0 {
		return plan{}, false
	}
	p := plan{target: f, gain: before - after, dec: true, removed: x.res.WiresRemoved}
	x.setPlan(&p)
	return p, true
}

// trialSeq is one dividend's trial sequence over its (truncated)
// candidate list, in candidate order: the paper's first-positive-gain
// scan, or under Options.BestGain every slot planned and the first of the
// largest gains kept; then, when no slot gained, the pooled fallback. It
// is the one routine that plans a dividend: the serial driver and batch
// phase B each run it once per dividend.
type trialSeq struct {
	f     string
	cands []candidate

	trials int  // slots planned (Stats.DivisorTrials)
	pooled bool // the pooled fallback was planned
}

// choose plans t and returns the plan to commit, finished; ok=false when
// no division gains. nw is the network the caller commits to (or, in
// phase B, the frozen batch-start network).
func (t *trialSeq) choose(sc *scratch, nw network.Reader, opt Options) (plan, bool) {
	var best plan // gain 0 until a slot gains
	for _, c := range t.cands {
		p, ok := planPair(sc, nw, t.f, c, opt)
		t.trials++
		if !ok || p.gain <= best.gain {
			continue
		}
		best = p
		if !opt.BestGain {
			break // paper: take the first positive-gain division
		}
	}
	if best.gain > 0 {
		best.finish()
		return best, true
	}
	if !opt.Pool || opt.Config == Basic {
		return plan{}, false
	}
	t.pooled = true
	return planPooled(sc, nw, t.f, t.cands, opt)
}

// commitPlan is the serial committer: it installs a plan in the live
// network (copying a clone plan's network wholesale), invalidates the node
// cache for every node the plan adds or replaces, and updates statistics.
func commitPlan(nw *network.Network, p plan, opt Options, nc *nodeCache, st *Stats) {
	if p.clone != nil {
		nw.CopyFrom(p.clone)
	} else {
		nw.Install(p.added, p.bodies)
	}
	nc.invalidate(&p)

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
}

// evaluator owns the planner scratch arenas. The serial path plans on
// scratches[0]; only the batch scheduler's phase B (batch.go) fans members
// out over all workers, one scratch per worker.
type evaluator struct {
	workers   int
	scratches []*scratch
}

// scratchPool recycles scratches across Substitute calls, so a flow that
// calls Substitute many times warms their builders, engines and trial
// memory once. It is a free list rather than a sync.Pool, so how much a
// run allocates does not depend on when the GC runs. It holds at most
// max(GOMAXPROCS, Workers of the call that last released) scratches (see
// release), and a retained scratch keeps the capacity of the largest
// network it planned. A scratch goes back only from a Substitute that
// returned normally.
var scratchPool struct {
	sync.Mutex
	free []*scratch
}

func newEvaluator(workers int) *evaluator {
	if workers < 1 {
		workers = 1
	}
	ev := &evaluator{workers: workers, scratches: make([]*scratch, workers)}
	scratchPool.Lock()
	defer scratchPool.Unlock()
	for i := range ev.scratches {
		if n := len(scratchPool.free); n > 0 {
			ev.scratches[i] = scratchPool.free[n-1]
			scratchPool.free = scratchPool.free[:n-1]
		} else {
			ev.scratches[i] = newScratch()
		}
	}
	return ev
}

// release hands ev's scratches back to the free list, each with its
// memoized base build dropped, so the list keeps neither the network nor
// a netlist of it alive. They go back last to first, so the next call's
// serial scratch is this call's, already grown to the serial path's
// working size. The list then keeps only its newest max(GOMAXPROCS,
// len(ev.scratches)) scratches: a call gets back every scratch it used,
// but neither concurrent calls nor an earlier call with more workers keep
// more on the list. A Substitute that panics never releases, so a scratch
// stopped in the middle of a trial is never reused.
func (ev *evaluator) release() {
	scratchPool.Lock()
	defer scratchPool.Unlock()
	for i := len(ev.scratches) - 1; i >= 0; i-- {
		sc := ev.scratches[i]
		sc.pin, sc.sharedFor, sc.sharedBuild = nil, nil, nil
		scratchPool.free = append(scratchPool.free, sc)
		ev.scratches[i] = nil
	}
	limit := max(runtime.GOMAXPROCS(0), len(ev.scratches))
	if extra := len(scratchPool.free) - limit; extra > 0 {
		scratchPool.free = slices.Delete(scratchPool.free, 0, extra)
	}
}
