package core

import (
	"slices"

	"repro/internal/algebraic"
	"repro/internal/atpg"
	"repro/internal/cube"
	"repro/internal/mini"
	"repro/internal/netlist"
	"repro/internal/network"
)

// DivideResult describes a successful Boolean division of node F by signal
// DSignal: F = Quotient·DSignal + Remainder (or the POS dual), already
// assembled into a replacement node function.
type DivideResult struct {
	// Fanins and Cover are the replacement node function for F.
	Fanins []string
	Cover  cube.Cover
	// Quotient and Remainder are over the same Fanins space (informational;
	// the quotient excludes the divisor literal itself). The public
	// division functions fill them; the substitution engine never reads
	// them and leaves them zero.
	Quotient  cube.Cover
	Remainder cube.Cover
	// WiresRemoved counts RAR removals performed during the division.
	WiresRemoved int
	// POS reports that the division was performed in product-of-sum form.
	POS bool
}

// maxComplementCubes bounds the complement covers complement-phase and
// POS-form division manipulate; a larger complement skips the form (plain
// SOP division remains).
const maxComplementCubes = 24

// form is the shape of a node-form division: which covers the SOS split
// runs on, and the phase of the divisor literal. The values are the
// trial-order tie-break between a divisor's forms (see lessScored).
type form uint8

const (
	// formSOP is the paper's basic division (Section III-B): split f by d
	// and AND the quotient part with d.
	formSOP form = iota
	// formCompl divides f by the COMPLEMENT of d: f = q·d' + r, the phase
	// the SIS `resub -d` baseline exploits, made Boolean by the same RAR
	// removal.
	formCompl
	// formPOS is product-of-sum-form division. Lemma 2 (the POS dual of
	// Lemma 1) justifies f = (d + q)·r, which by De Morgan is the SOS
	// machinery on the minimized complement covers, f̄ = q̄·d̄ + r̄, with a
	// negative divisor literal; the final node function is the complement
	// of the reduced cover.
	formPOS
)

// BasicDivide performs the paper's basic Boolean division of node f by node
// d within network nw (Section III-B): split off the remainder, AND the
// rest with d (redundant by Lemma 1 — realized as a d-literal in every
// quotient cube, which is implication-equivalent to the bold AND gate of
// Fig. 2), then remove redundancies inside the region. Returns ok=false when
// d is not usable (no cube of f is contained by a cube of d, or using d
// would create a cycle).
func BasicDivide(nw network.Reader, f, d string, cfg Config) (*DivideResult, bool) {
	return oneShotDivide(nw, f, candidate{name: d}, cfg)
}

// BasicDivideCompl divides node f by the COMPLEMENT of node d: the quotient
// cubes receive a negative divisor literal, f = q·d' + r (formCompl).
func BasicDivideCompl(nw network.Reader, f, d string, cfg Config) (*DivideResult, bool) {
	return oneShotDivide(nw, f, candidate{name: d, form: formCompl}, cfg)
}

// PosDivide performs the paper's product-of-sum-form division of node f by
// node d (formPOS). POS division always uses region-local implications (the
// scratch complement structure must not be observed downstream), so cfg
// degrades ExtendedGDC to Extended internally.
func PosDivide(nw network.Reader, f, d string, cfg Config) (*DivideResult, bool) {
	return oneShotDivide(nw, f, candidate{name: d, form: formPOS}, cfg)
}

// oneShotDivide runs one division on a one-shot scratch, whose divisions
// build their results on the heap.
func oneShotDivide(nw network.Reader, f string, c candidate, cfg Config) (*DivideResult, bool) {
	res, ok := divide(oneShot(), nw, nil, f, c, cfg, 0)
	if !ok {
		return nil, false
	}
	return &res, true
}

// keep copies r's fanins and cover out of the trial memory they may live
// in (see trialArena), for a caller that keeps them past the scratch's
// next division: three allocations however many cubes the cover has.
func (r *DivideResult) keep() {
	r.Fanins = slices.Clone(r.Fanins)
	cov := cube.NewCover(r.Cover.NumVars())
	cov.Cubes = cube.CloneCubes(r.Cover.Cubes)
	r.Cover = cov
}

// divide is the one node-form division routine: it divides node f by the
// divisor c.name in c.form with an explicit scratch arena (the engine's
// worker pool hands each worker its own). win, when non-nil, is the window
// carved around f and d that the trial runs in (see divideWithParts). The
// covers c carries, when set, replace the complements divide would compute
// (see candidate). Everything the division builds lives in the scratch's
// trial memory, the result's fanins and cover included, until the
// scratch's next division (see trialArena); only POS division's final
// complement is built on the heap.
//
// beat, when positive, is the factored-literal count the division must
// beat to gain (the engine passes the dividend's own). A POS division whose
// literal floor already reaches it is refused before its final complement
// and minimization (see posFloorRefuses); beat ≤ 0 refuses nothing.
//
//bdslint:hotpath
func divide(sc *scratch, nw network.Reader, win *window, f string, c candidate, cfg Config, beat int) (DivideResult, bool) {
	fn, dn := nw.Node(f), nw.Node(c.name)
	if fn == nil || dn == nil || f == c.name {
		return DivideResult{}, false
	}
	return divideBy(sc, nw, win, nil, fn, dn, c, cfg, beat)
}

// divideBy is divide with the dividend's and divisor's nodes in hand. pre,
// when non-empty, holds node bodies nw lacks that every RAR pass patches
// in ahead of f: a decomposition's core, which is the divisor dn, and the
// divisor it was cut from (see divideCore). The core's fanins are fanins
// of divisors voteTable proved independent of f, so such a division skips
// the cycle walk.
//
//bdslint:hotpath
func divideBy(sc *scratch, nw network.Reader, win *window, pre []*network.Node, fn, dn *network.Node, c candidate, cfg Config, beat int) (DivideResult, bool) {
	f, d := fn.Name, dn.Name
	if dn.Cover.IsZero() || (dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse()) {
		return DivideResult{}, false // constant divisor
	}
	if len(pre) == 0 && divisorDependsOn(nw, win, f, d) {
		return DivideResult{}, false // substitution would create a cycle
	}
	fc, dc, ok := c.covers(fn, dn)
	if !ok {
		return DivideResult{}, false
	}
	t := sc.trialMem()
	t.space = appendUnion(t.space[:0], fn.Fanins, dn.Fanins)
	union := t.space
	fU := t.remap(&t.fU, fc, fn.Fanins, union)
	dU := t.remap(&t.dU, dc, dn.Fanins, union)
	qPart, rem := splitSOS(fU, dU, t.q, t.r)
	t.q, t.r = qPart.Cubes, rem.Cubes
	if qPart.IsZero() {
		return DivideResult{}, false
	}
	yPhase := cube.Neg
	if c.form == formSOP {
		yPhase = cube.Pos
	}
	if c.form == formPOS && cfg == ExtendedGDC {
		cfg = Extended // see PosDivide
	}
	res, ok := divideWithParts(sc, t, nw, win, pre, f, d, qPart, rem, cfg, yPhase)
	if !ok || c.form != formPOS {
		return res, ok
	}
	if sc.posFloorRefuses(res.Cover, beat) {
		return DivideResult{}, false
	}
	// res.Cover computes f̄; the node function is its complement.
	final, ok := res.Cover.ComplementAtMost(4 * maxComplementCubes)
	if !ok {
		return DivideResult{}, false
	}
	res.Cover = mini.Minimize(final, mini.Options{})
	res.POS = true
	return res, true
}

// covers returns the dividend- and divisor-side covers c's form splits:
// f and d, f and d̄, or the minimized f̄ and d̄. Carried covers are taken
// as they are (enumeration already checked them); otherwise ok=false when
// a complement is zero or larger than maxComplementCubes.
func (c candidate) covers(fn, dn *network.Node) (fc, dc cube.Cover, ok bool) {
	switch c.form {
	case formSOP:
		return fn.Cover, dn.Cover, true
	case formCompl:
		if c.carried {
			return fn.Cover, c.dc, true
		}
		dc, ok = boundedComplement(dn.Cover)
		return fn.Cover, dc, ok
	}
	if c.carried {
		return c.fc, c.dc, true
	}
	if fc, ok = boundedComplement(fn.Cover); !ok {
		return fc, dc, false
	}
	if dc, ok = boundedComplement(dn.Cover); !ok {
		return fc, dc, false
	}
	return mini.Minimize(fc, mini.Options{}), mini.Minimize(dc, mini.Options{}), true
}

// posFloorCorrupt, when set (tests only), makes posFloorRefuses refuse
// every POS division it is asked about — the corruption-injection seam
// proving the floor audit (see auditFloor) fires on a refused division
// that gains.
var posFloorCorrupt bool

// posFloorRefuses reports whether a POS division whose RAR-reduced f̄ cover
// is h cannot gain against beat literals: no factored form of h's
// complement, the node function the division would finish with, has fewer
// literals than algebraic.LiteralFloor(h), so once the floor reaches beat
// the complement and its minimization are not worth building. beat ≤ 0,
// or sc.noFloor (the audit's re-plan), refuses nothing.
//
//bdslint:hotpath
func (sc *scratch) posFloorRefuses(h cube.Cover, beat int) bool {
	if beat <= 0 || sc.noFloor {
		return false
	}
	return posFloorCorrupt || algebraic.LiteralFloor(h, beat) >= beat
}

// boundedComplement returns cov's complement, ok=false when it is zero or
// has more than maxComplementCubes cubes.
func boundedComplement(cov cube.Cover) (cube.Cover, bool) {
	c, ok := cov.ComplementAtMost(maxComplementCubes)
	return c, ok && !c.IsZero()
}

// divisorDependsOn reports whether d depends on f, so that dividing f by d
// would close a cycle: inside the carved window when win is non-nil (as
// the materialized window would answer), in nw otherwise.
func divisorDependsOn(nw network.Reader, win *window, f, d string) bool {
	if win != nil {
		return win.dependsOn(nw)
	}
	return nw.DependsOn(d, f)
}

// divideWithParts finishes a division given the SOS split: it installs the
// tentative structure f = (qPart ∧ y) + rem (y in the given phase —
// negative for complement-phase division and for the POS dual, where the
// caller post-processes the complement), runs RAR redundancy removal in
// the region, and extracts the result.
//
// Only the dividend is rewritten (with pre, see divideBy), so no trial
// takes a working copy: f's structure is patched into a netlist per pass —
// the carved window's region when win is set, else nw's base build
// (memoized per network version for the live network). The divisor-cycle
// check has already refused d, and every other new fanin is one of f's or
// d's own, so the rewrite cannot close a cycle. The reference path
// (Options.reference, which Options.Audit replays) instead installs f's
// structure in a deep clone and rebuilds its netlist every pass
// (regionRARRebuild).
//
//bdslint:hotpath
func divideWithParts(sc *scratch, t *trialArena, nw network.Reader, win *window, pre []*network.Node, f, d string, qPart, rem cube.Cover, cfg Config, yPhase cube.Phase) (DivideResult, bool) {
	cov, fanins := tentativeCover(t, d, qPart, rem, yPhase)
	var removed int
	switch {
	case sc.reference:
		work := nw.Clone()
		if err := work.ReplaceNodeFunction(f, fanins, cov); err != nil {
			return DivideResult{}, false
		}
		removed = regionRARRebuild(sc, t, work, f, d, cfg)
		fn := work.Node(f)
		fanins, cov = fn.Fanins, fn.Cover
	case win != nil:
		b := sc.bFresh.BuildRegion(nw, win.ins, win.nodes, win.outs[:])
		cov, removed = rarPatched(sc, t, b, nil, f, d, fanins, cov, cfg)
	default:
		cov, removed = rarPatched(sc, t, sc.baseBuild(nw), pre, f, d, fanins, cov, cfg)
	}

	res := DivideResult{
		Fanins:       fanins,
		Cover:        cov,
		WiresRemoved: removed,
	}
	if sc.parts {
		// Split the informational quotient/remainder back out.
		q, r := cube.NewCover(len(fanins)), cube.NewCover(len(fanins))
		yNow := indexOf(fanins, d)
		for _, c := range cov.Cubes {
			if yNow >= 0 && c.Get(yNow) == yPhase {
				q.Cubes = append(q.Cubes, c.With(yNow, cube.Free))
			} else {
				r.Cubes = append(r.Cubes, c)
			}
		}
		res.Quotient, res.Remainder = q, r
	}
	return res, true
}

// tentativeCover builds divideWithParts' pre-removal division structure
// f = (qPart ∧ y) + rem over the union space (t.space) plus the divisor
// signal, in t: the space extends the union in place, and the cover's
// cubes are built on t's arena and listed in t.tent.
//
//bdslint:hotpath
func tentativeCover(t *trialArena, d string, qPart, rem cube.Cover, yPhase cube.Phase) (cube.Cover, []string) {
	// Variable space: union signals plus the divisor signal.
	space := t.space
	yIdx := indexOf(space, d)
	if yIdx < 0 {
		yIdx = len(space)
		space = append(space, d)
		t.space = space
	}
	n := len(space)

	// The parts' variables keep their positions in the space.
	at := t.at[:0]
	for v := 0; v < qPart.NumVars(); v++ {
		at = append(at, v)
	}
	t.at = at
	tent := network.AppendRemapped(t.tent[:0], &t.cubes, qPart, at, n)
	kept := tent[:0]
	for _, k := range tent {
		if p := k.Get(yIdx); p != cube.Free && p != yPhase {
			// The cube already carries the opposite divisor literal. Being
			// contained in a divisor cube it also implies the divisor, so it
			// is functionally empty in context: drop it.
			continue
		}
		k.Set(yIdx, yPhase)
		kept = append(kept, k)
	}
	tent = network.AppendRemapped(kept, &t.cubes, rem, at, n)
	t.tent = tent
	tentative := cube.NewCover(n)
	tentative.Cubes = tent
	return tentative, space
}

// regionDominators bounds a region-local (Basic or Extended) dominator
// walk to one step: a literal fault's ends at f's OR gate, and an OR-pin
// fault's asserts the side inputs of that gate's single fanout when f is no
// PO — the one look past f's output (DESIGN.md, "Windowed trials: region
// netlists"), which windows, whose outputs f is one of, never take.
const regionDominators = 1

// rarOptions returns the implication options and dominator-walk bound of
// one implication run of cfg on build b about dividend f and the given
// divisors — a RAR pass (one divisor) or a vote table (a pool of them): for
// Basic and Extended, region-local implications, scoped to the regions of
// f and then of each divisor (see appendNodeScope), that walk
// regionDominators steps; for ExtendedGDC, global ones with recursive
// learning that walk real dominators (global don't cares). The scope is
// sc.scope's, valid until the next call.
//
//bdslint:hotpath
func (sc *scratch) rarOptions(cfg Config, b *netlist.Build, f string, divisors ...string) (atpg.Options, int) {
	if cfg == ExtendedGDC {
		return atpg.Options{Learn: true}, -1
	}
	sc.scope = appendNodeScope(sc.scope[:0], b, b.NL, f)
	for _, d := range divisors {
		sc.scope = appendNodeScope(sc.scope, b, b.NL, d)
	}
	return atpg.Options{Scope: sc.scope}, regionDominators
}

// regionRARRebuild removes redundant wires inside node f's region of a
// working copy: literal pins of f's cubes (stuck-at-1) and cube pins at the
// node's OR (stuck-at-0). Pins carrying the divisor literal are never
// tested — they realize the added redundancy and define the division form.
// Removals are extracted back into the node's SOP after every pass (a
// removal can enable further removals). Returns the number of wires
// removed.
//
// Every pass rebuilds the working copy's netlist. Only the reference path
// runs it; every other trial patches (rarPatched) and runs the same
// implications, since the patched netlist differs from a fresh build only
// by numbering and by orphaned cube gates with no live fanout, which no
// implication, dominator walk or learning candidate reads (see DESIGN.md,
// "Implication engine: learning ignores gate numbers").
func regionRARRebuild(sc *scratch, t *trialArena, work *network.Network, f, d string, cfg Config) int {
	removed := 0
	for pass := 0; pass < 8; pass++ {
		b := sc.bFresh.Build(work)
		nl := b.NL
		ng := b.Nodes[f]
		opt, stopAfter := sc.rarOptions(cfg, b, f, d)
		e := sc.engine(nl, opt)

		changed, n := rarPass(e, nl, b, ng, d, stopAfter)
		removed += n
		if !changed {
			return removed
		}
		fn := work.Node(f)
		work.SetNodeCover(f, extractNode(t, nl, b, fn.Fanins, f))
	}
	return removed
}

// rarPatched runs RAR on base build b for f's working function (fanins,
// cov): the bodies of pre (see divideBy) and then f's structure are patched
// in per pass and rolled back byte-exactly in between and on return, so b
// is unchanged afterwards. Returns f's cover after the removals, in t, and
// the number of wires removed.
//
//bdslint:hotpath
func rarPatched(sc *scratch, t *trialArena, b *netlist.Build, pre []*network.Node, f, d string, fanins []string, cov cube.Cover, cfg Config) (cube.Cover, int) {
	nl := b.NL
	// The Nodes entries the patches overwrite, restored on return: f's,
	// then pre's (nil for a node b lacks).
	saved := append(sc.saved[:0], b.Nodes[f])
	for _, n := range pre {
		saved = append(saved, b.Nodes[n.Name])
	}
	sc.saved = saved
	nl.BeginTx()
	defer nl.EndTx()
	work := network.Node{Name: f, Fanins: fanins}
	removed := 0
	for pass := 0; pass < 8; pass++ {
		if pass > 0 {
			nl.RollbackTx()
		}
		for _, n := range pre {
			b.PatchNode(n.Name, n)
		}
		work.Cover = cov
		ng := b.PatchNode(f, &work)
		opt, stopAfter := sc.rarOptions(cfg, b, f, d)
		e := sc.engine(nl, opt)

		changed, n := rarPass(e, nl, b, ng, d, stopAfter)
		removed += n
		if !changed {
			break
		}
		cov = extractNode(t, nl, b, fanins, f)
	}
	b.Nodes[f] = saved[0]
	for i, n := range pre {
		if saved[i+1] == nil {
			delete(b.Nodes, n.Name)
		} else {
			b.Nodes[n.Name] = saved[i+1]
		}
	}
	return cov, removed
}

// rarPass runs one removal sweep over node f's gates (ng): every unprotected
// cube-literal pin is tested stuck-at-1 and every cube pin at the OR
// stuck-at-0, removing each pin proved untestable. Returns whether anything
// was removed this pass and how many wires.
func rarPass(e *atpg.Engine, nl *netlist.Netlist, b *netlist.Build, ng *netlist.NodeGates, d string, stopAfter int) (bool, int) {
	// Divisor literal gates to protect (positive and, for POS, the cached
	// inverter).
	yGate, yOK := nl.Signal[d]
	yInv := -1
	if yOK {
		for _, fo := range nl.Fanouts(yGate) {
			if nl.KindOf(fo) == netlist.Not && nl.Fanins(fo)[0] == yGate {
				yInv = fo
				break
			}
		}
	}
	protected := func(src int) bool { return yOK && (src == yGate || src == yInv) }

	removed := 0
	changed := false
	for _, g := range ng.Cubes {
		for pin := len(nl.Fanins(g)) - 1; pin >= 0; pin-- {
			if protected(nl.Fanins(g)[pin]) {
				continue
			}
			if atpg.RemoveIfUntestable(e, nl, atpg.Wire{Gate: g, Pin: pin}, atpg.One, stopAfter) {
				removed++
				changed = true
			}
		}
	}
	// Cube pins at the node OR (whole-cube removal).
	for pin := len(nl.Fanins(ng.Out)) - 1; pin >= 0; pin-- {
		if atpg.RemoveIfUntestable(e, nl, atpg.Wire{Gate: ng.Out, Pin: pin}, atpg.Zero, stopAfter) {
			removed++
			changed = true
		}
	}
	return changed, removed
}

// extractNode reads node f's two-level structure back out of the (mutated)
// netlist into a cover over the node's current fanins, single-cube
// containment minimized, in t: its cubes are built on t's arena and listed
// in t.ext, which the previous extraction's cover is no longer read from.
// t.fanGates holds the fanins' signal gates while it runs.
//
//bdslint:hotpath
func extractNode(t *trialArena, nl *netlist.Netlist, b *netlist.Build, fanins []string, f string) cube.Cover {
	ng := b.Nodes[f]
	n := len(fanins)
	sigs := t.fanGates[:0]
	for _, sig := range fanins {
		sigs = append(sigs, nl.Signal[sig])
	}
	t.fanGates = sigs
	cubes := t.ext[:0]
	for _, pin := range nl.Fanins(ng.Out) {
		// pin is a cube AND gate.
		c := t.cubes.New(n)
		for _, lg := range nl.Fanins(pin) {
			// A gate that is no literal of this node is skipped (shouldn't
			// happen).
			if v, p, ok := literalOf(nl, sigs, lg); ok {
				c.Set(v, p)
			}
		}
		cubes = append(cubes, c)
	}
	t.ext = cubes
	cov := cube.NewCover(n)
	cov.Cubes = cubes
	return cov.SCCInPlace()
}

// literalOf maps literal gate lg back to (var, phase) given the fanins'
// signal gates: fanin v's signal gate reads as v, a NOT gate over it as v'.
// When several fanins match, the last one wins.
func literalOf(nl *netlist.Netlist, sigs []int, lg int) (int, cube.Phase, bool) {
	src := -1
	if nl.KindOf(lg) == netlist.Not {
		src = nl.Fanins(lg)[0]
	}
	for v := len(sigs) - 1; v >= 0; v-- {
		switch sigs[v] {
		case lg:
			return v, cube.Pos, true
		case src:
			return v, cube.Neg, true
		}
	}
	return 0, 0, false
}

// appendNodeScope appends one node's share of a region scope to dst: the
// node's OR gate, its cube gates, and for every cube pin the literal gate
// and that gate's fanins. For a positive literal the literal gate is the
// fanin's signal gate, so the fanin node's cube gates come along (a primary
// input adds nothing more); for a negative literal they are the inverter
// and the signal gate it inverts. Gates may repeat; a node that has no
// gates adds nothing.
func appendNodeScope(dst []int, b *netlist.Build, nl *netlist.Netlist, name string) []int {
	ng := b.Nodes[name]
	if ng == nil {
		return dst
	}
	dst = append(dst, ng.Out)
	for _, cg := range ng.Cubes {
		dst = append(dst, cg)
		for _, lg := range nl.Fanins(cg) {
			dst = append(dst, lg)
			dst = append(dst, nl.Fanins(lg)...)
		}
	}
	return dst
}

// appendUnion appends a and then b's signals not already in a to dst,
// preserving first-appearance order. Fanin lists are a handful of signals,
// so a linear containment scan beats a hash set.
//
//bdslint:hotpath
func appendUnion(dst, a, b []string) []string {
	start := len(dst)
	dst = append(dst, a...)
	for _, s := range b {
		if indexOf(dst[start:], s) < 0 {
			dst = append(dst, s)
		}
	}
	return dst
}

func indexOf(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return -1
}
