package core

import (
	"repro/internal/atpg"
	"repro/internal/cube"
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
	// the quotient excludes the divisor literal itself).
	Quotient  cube.Cover
	Remainder cube.Cover
	// WiresRemoved counts RAR removals performed during the division.
	WiresRemoved int
	// POS reports that the division was performed in product-of-sum form.
	POS bool
}

// BasicDivide performs the paper's basic Boolean division of node f by node
// d within network nw (Section III-B): split off the remainder, AND the
// rest with d (redundant by Lemma 1 — realized as a d-literal in every
// quotient cube, which is implication-equivalent to the bold AND gate of
// Fig. 2), then remove redundancies inside the region. Returns ok=false when
// d is not usable (no cube of f is contained by a cube of d, or using d
// would create a cycle).
func BasicDivide(nw network.Reader, f, d string, cfg Config) (*DivideResult, bool) {
	return basicDivide(newScratch(), nw, f, d, cfg)
}

// basicDivide is BasicDivide with an explicit scratch arena (the engine's
// worker pool hands each worker its own).
func basicDivide(sc *scratch, nw network.Reader, f, d string, cfg Config) (*DivideResult, bool) {
	fn, dn := nw.Node(f), nw.Node(d)
	if fn == nil || dn == nil || f == d {
		return nil, false
	}
	if dn.Cover.IsZero() || (dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse()) {
		return nil, false // constant divisor
	}
	if nw.DependsOn(d, f) {
		return nil, false // substitution would create a cycle
	}
	union := unionSignals(fn.Fanins, dn.Fanins)
	fU := network.RemapCover(fn.Cover, fn.Fanins, union)
	dU := network.RemapCover(dn.Cover, dn.Fanins, union)
	qPart, rem := SplitSOS(fU, dU)
	if qPart.IsZero() {
		return nil, false
	}
	return divideWithParts(sc, nw, f, d, union, qPart, rem, cfg, cube.Pos, false)
}

// BasicDivideCompl divides node f by the COMPLEMENT of node d: the quotient
// cubes receive a negative divisor literal, f = q·d' + r. This covers the
// complement phase the SIS `resub -d` baseline exploits, with the same RAR
// redundancy removal making it Boolean. maxCompl bounds the divisor
// complement size (0 = default).
func BasicDivideCompl(nw network.Reader, f, d string, cfg Config, maxCompl int) (*DivideResult, bool) {
	return basicDivideCompl(newScratch(), nw, f, d, cfg, maxCompl, nil)
}

// basicDivideCompl is BasicDivideCompl with an explicit scratch arena.
// pre, when non-nil, is d's complement carried from candidate enumeration
// (byte-identical to recomputing it — see candidate).
func basicDivideCompl(sc *scratch, nw network.Reader, f, d string, cfg Config, maxCompl int, pre *cube.Cover) (*DivideResult, bool) {
	if maxCompl <= 0 {
		maxCompl = DefaultMaxComplementCubes
	}
	fn, dn := nw.Node(f), nw.Node(d)
	if fn == nil || dn == nil || f == d {
		return nil, false
	}
	if dn.Cover.IsZero() || (dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse()) {
		return nil, false
	}
	if nw.DependsOn(d, f) {
		return nil, false
	}
	var dc cube.Cover
	if pre != nil {
		dc = *pre // already checked non-zero and within bound by complCache
	} else {
		var ok bool
		if dc, ok = dn.Cover.ComplementAtMost(maxCompl); !ok || dc.IsZero() {
			return nil, false
		}
	}
	union := unionSignals(fn.Fanins, dn.Fanins)
	fU := network.RemapCover(fn.Cover, fn.Fanins, union)
	dcU := network.RemapCover(dc, dn.Fanins, union)
	qPart, rem := SplitSOS(fU, dcU)
	if qPart.IsZero() {
		return nil, false
	}
	return divideWithParts(sc, nw, f, d, union, qPart, rem, cfg, cube.Neg, false)
}

// divideWithParts finishes a division given the SOS split: it installs the
// tentative structure f = (qPart ∧ y) + rem in a working copy of the network
// (a copy-on-write overlay, or a deep clone under NoOverlay; y in the given
// phase — negative for complement-phase division and for the POS dual, where
// the caller post-processes the complement), runs RAR redundancy removal in
// the region, and extracts the result.
func divideWithParts(sc *scratch, nw network.Reader, f, d string, union []string, qPart, rem cube.Cover, cfg Config, yPhase cube.Phase, markPOS bool) (*DivideResult, bool) {
	tentative, space := tentativeCover(union, d, qPart, rem, yPhase)

	work := sc.trialClone(nw)
	if err := work.ReplaceNodeFunction(f, space, tentative); err != nil {
		return nil, false
	}

	removed := runRegionRAR(sc, work, f, d, cfg)

	fn := work.Node(f)
	res := &DivideResult{
		Fanins:       fn.Fanins,
		Cover:        fn.Cover,
		WiresRemoved: removed,
		POS:          markPOS,
	}
	// Split informational quotient/remainder back out.
	q, r := cube.NewCover(len(fn.Fanins)), cube.NewCover(len(fn.Fanins))
	yNow := indexOf(fn.Fanins, d)
	for _, c := range fn.Cover.Cubes {
		if yNow >= 0 && c.Get(yNow) == yPhase {
			q.Cubes = append(q.Cubes, c.With(yNow, cube.Free))
		} else {
			r.Cubes = append(r.Cubes, c)
		}
	}
	res.Quotient, res.Remainder = q, r
	return res, true
}

// tentativeCover builds the pre-removal division structure f = (qPart ∧ y)
// + rem over the union space plus the divisor signal (shared by
// divideWithParts and the signature prefilter's exact no-removal gain
// computation — the two must stay cube-for-cube identical).
func tentativeCover(union []string, d string, qPart, rem cube.Cover, yPhase cube.Phase) (cube.Cover, []string) {
	// Variable space: union signals plus the divisor signal.
	space := union
	yIdx := indexOf(union, d)
	if yIdx < 0 {
		yIdx = len(space)
		space = append(append([]string(nil), union...), d)
	}
	n := len(space)

	grow := func(c cube.Cube, withY bool) (cube.Cube, bool) {
		k := cube.New(n)
		for _, v := range c.Lits() {
			k.Set(v, c.Get(v))
		}
		if withY {
			if p := k.Get(yIdx); p != cube.Free && p != yPhase {
				// The cube already carries the opposite divisor literal.
				// Being contained in a divisor cube it also implies the
				// divisor, so it is functionally empty in context: drop it.
				return cube.Cube{}, false
			}
			k.Set(yIdx, yPhase)
		}
		return k, true
	}
	tentative := cube.NewCover(n)
	for _, c := range qPart.Cubes {
		if k, ok := grow(c, true); ok {
			tentative.Cubes = append(tentative.Cubes, k)
		}
	}
	for _, c := range rem.Cubes {
		if k, ok := grow(c, false); ok {
			tentative.Cubes = append(tentative.Cubes, k)
		}
	}
	return tentative, space
}

// runRegionRAR removes redundant wires inside node f's region: literal pins
// of f's cubes (stuck-at-1) and cube pins at the node's OR (stuck-at-0).
// Pins carrying the divisor literal are never tested — they realize the
// added redundancy and define the division form. Removals are extracted back
// into the node's SOP after every pass (a removal can enable further
// removals). Returns the number of wires removed.
//
// Overlay trials with region-local implications take the patched path: the
// base network's netlist is built once (memoized across every trial of a
// commit epoch for the live network) and only f's two-level structure is patched
// in and rolled back per pass. GDC trials always rebuild: their capped
// learning pass scans gates in id order, so they must see exactly the gate
// numbering a fresh build of the working network produces. Both paths run
// identical implications — the patched netlist differs from a fresh build
// only by orphaned cube gates with no live fanout, which region scopes,
// dominator walks, and TFO marks never reach.
func runRegionRAR(sc *scratch, work trialNet, f, d string, cfg Config) int {
	if ov, ok := work.(*network.Overlay); ok && cfg != ExtendedGDC {
		return regionRARPatched(sc, ov, f, d)
	}
	return regionRARRebuild(sc, work, f, d, cfg)
}

// regionRARRebuild is the rebuild-per-pass RAR loop (the historical path):
// NoOverlay clones and GDC trials.
func regionRARRebuild(sc *scratch, work trialNet, f, d string, cfg Config) int {
	removed := 0
	for pass := 0; pass < 8; pass++ {
		b := sc.b.Build(work)
		nl := b.NL
		ng := b.Nodes[f]
		opt := atpg.Options{}
		stopAfter := 1 // treat the node output as directly observable
		switch cfg {
		case ExtendedGDC:
			opt.Learn = true
			stopAfter = -1 // walk real dominators: global don't cares
		default:
			opt.Scope = localScope(b, nl, f, d)
		}
		e := sc.engine(nl, opt)

		changed, n := rarPass(e, nl, b, ng, d, stopAfter)
		removed += n
		if !changed {
			return removed
		}
		work.SetNodeCover(f, extractNode(nl, b, work.Node(f), f))
	}
	return removed
}

// regionRARPatched is the copy-on-write RAR loop: one base build, patched
// with f's tentative structure per pass and rolled back byte-exactly
// in between. Only region-local (stopAfter=1, scoped) implications run
// here — see runRegionRAR.
func regionRARPatched(sc *scratch, work *network.Overlay, f, d string) int {
	b := sc.baseBuild(work.Base())
	nl := b.NL
	oldNG := b.Nodes[f]
	nl.BeginTx()
	defer func() {
		nl.EndTx()
		b.Nodes[f] = oldNG
	}()
	removed := 0
	for pass := 0; pass < 8; pass++ {
		if pass > 0 {
			nl.RollbackTx()
		}
		ng := b.PatchNode(f, work.Node(f))
		opt := atpg.Options{Scope: localScope(b, nl, f, d)}
		e := sc.engine(nl, opt)

		changed, n := rarPass(e, nl, b, ng, d, 1)
		removed += n
		if !changed {
			return removed
		}
		work.SetNodeCover(f, extractNode(nl, b, work.Node(f), f))
	}
	return removed
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
// netlist into a cover over the node's current fanins (fn is the working
// copy's node).
func extractNode(nl *netlist.Netlist, b *netlist.Build, fn *network.Node, f string) cube.Cover {
	ng := b.Nodes[f]
	n := len(fn.Fanins)
	// Map literal gates back to (var, phase).
	lit := make(map[int]struct {
		v int
		p cube.Phase
	})
	for v, sig := range fn.Fanins {
		g := nl.Signal[sig]
		lit[g] = struct {
			v int
			p cube.Phase
		}{v, cube.Pos}
		for _, fo := range nl.Fanouts(g) {
			if nl.KindOf(fo) == netlist.Not && nl.Fanins(fo)[0] == g {
				lit[fo] = struct {
					v int
					p cube.Phase
				}{v, cube.Neg}
			}
		}
	}
	cov := cube.NewCover(n)
	for _, pin := range nl.Fanins(ng.Out) {
		// pin is a cube AND gate.
		c := cube.New(n)
		for _, lg := range nl.Fanins(pin) {
			l, ok := lit[lg]
			if !ok {
				// Not a literal of this node (shouldn't happen).
				continue
			}
			c.Set(l.v, l.p)
		}
		cov.Cubes = append(cov.Cubes, c)
	}
	return cov.SCC()
}

// localScope builds the paper's region-restricted implication scope: the
// two-level structures of f and d, the literal gates (signals and
// inverters) feeding them, and the signal gates of their fanins.
func localScope(b *netlist.Build, nl *netlist.Netlist, f, d string) map[int]bool {
	scope := make(map[int]bool)
	addNode := func(name string) {
		ng := b.Nodes[name]
		if ng == nil {
			return
		}
		scope[ng.Out] = true
		for _, cg := range ng.Cubes {
			scope[cg] = true
			for _, lg := range nl.Fanins(cg) {
				scope[lg] = true
				for _, x := range nl.Fanins(lg) {
					scope[x] = true
				}
			}
		}
	}
	addNode(f)
	addNode(d)
	return scope
}

// unionSignals returns a followed by b's signals not already in a,
// preserving first-appearance order. Fanin lists are a handful of signals,
// so a linear containment scan beats allocating a hash set per call on the
// trial path.
func unionSignals(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, s := range b {
		if indexOf(out, s) < 0 {
			out = append(out, s)
		}
	}
	return out
}

func indexOf(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return -1
}

func indexOfInt(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
