package core

import (
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
	// the quotient excludes the divisor literal itself).
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
	return divide(newScratch(), nw, nil, f, candidate{name: d}, cfg)
}

// BasicDivideCompl divides node f by the COMPLEMENT of node d: the quotient
// cubes receive a negative divisor literal, f = q·d' + r (formCompl).
func BasicDivideCompl(nw network.Reader, f, d string, cfg Config) (*DivideResult, bool) {
	return divide(newScratch(), nw, nil, f, candidate{name: d, form: formCompl}, cfg)
}

// PosDivide performs the paper's product-of-sum-form division of node f by
// node d (formPOS). POS division always uses region-local implications (the
// scratch complement structure must not be observed downstream), so cfg
// degrades ExtendedGDC to Extended internally.
func PosDivide(nw network.Reader, f, d string, cfg Config) (*DivideResult, bool) {
	return divide(newScratch(), nw, nil, f, candidate{name: d, form: formPOS}, cfg)
}

// divide is the one node-form division routine: it divides node f by the
// divisor c.name in c.form with an explicit scratch arena (the engine's
// worker pool hands each worker its own). win, when non-nil, is the window
// carved around f and d that the trial runs in (see divideWithParts). The
// covers c carries, when set, replace the complements divide would compute
// (see candidate).
func divide(sc *scratch, nw network.Reader, win *window, f string, c candidate, cfg Config) (*DivideResult, bool) {
	d := c.name
	fn, dn := nw.Node(f), nw.Node(d)
	if fn == nil || dn == nil || f == d {
		return nil, false
	}
	if dn.Cover.IsZero() || (dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse()) {
		return nil, false // constant divisor
	}
	if divisorDependsOn(nw, win, f, d) {
		return nil, false // substitution would create a cycle
	}
	fc, dc, ok := c.covers(fn, dn)
	if !ok {
		return nil, false
	}
	union := unionSignals(fn.Fanins, dn.Fanins)
	fU := network.RemapCover(fc, fn.Fanins, union)
	dU := network.RemapCover(dc, dn.Fanins, union)
	qPart, rem := SplitSOS(fU, dU)
	if qPart.IsZero() {
		return nil, false
	}
	yPhase := cube.Neg
	if c.form == formSOP {
		yPhase = cube.Pos
	}
	if c.form == formPOS && cfg == ExtendedGDC {
		cfg = Extended // see PosDivide
	}
	res, ok := divideWithParts(sc, nw, win, f, d, union, qPart, rem, cfg, yPhase)
	if !ok || c.form != formPOS {
		return res, ok
	}
	// res.Cover computes f̄; the node function is its complement.
	final, ok := res.Cover.ComplementAtMost(4 * maxComplementCubes)
	if !ok {
		return nil, false
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
		if c.dc != nil {
			return fn.Cover, *c.dc, true
		}
		dc, ok = boundedComplement(dn.Cover)
		return fn.Cover, dc, ok
	}
	if c.fc != nil && c.dc != nil {
		return *c.fc, *c.dc, true
	}
	if fc, ok = boundedComplement(fn.Cover); !ok {
		return fc, dc, false
	}
	if dc, ok = boundedComplement(dn.Cover); !ok {
		return fc, dc, false
	}
	return mini.Minimize(fc, mini.Options{}), mini.Minimize(dc, mini.Options{}), true
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
// Only the dividend is rewritten, so the default paths take no working
// copy: f's structure is patched into a netlist of nw per pass — the
// carved window's region when win is set, else nw's base build (memoized
// per commit epoch for the live network). The divisor-cycle check has
// already refused d, and every other new fanin is one of f's or d's own,
// so the rewrite cannot close a cycle. The clone path (noOverlay, the
// Audit reference) and GDC trials instead install f's structure in a
// working copy and rebuild its netlist every pass (regionRARRebuild).
func divideWithParts(sc *scratch, nw network.Reader, win *window, f, d string, union []string, qPart, rem cube.Cover, cfg Config, yPhase cube.Phase) (*DivideResult, bool) {
	cov, fanins := tentativeCover(union, d, qPart, rem, yPhase)
	var removed int
	switch {
	case win != nil:
		b := sc.bFresh.BuildRegion(nw, win.ins, win.nodes, win.outs[:])
		cov, removed = rarPatched(sc, b, f, d, fanins, cov)
	case sc.noOverlay || cfg == ExtendedGDC:
		work := sc.trialClone(nw)
		if err := work.ReplaceNodeFunction(f, fanins, cov); err != nil {
			return nil, false
		}
		removed = regionRARRebuild(sc, work, f, d, cfg)
		fn := work.Node(f)
		fanins, cov = fn.Fanins, fn.Cover
	default:
		cov, removed = rarPatched(sc, sc.baseBuild(nw), f, d, fanins, cov)
	}

	res := &DivideResult{
		Fanins:       fanins,
		Cover:        cov,
		WiresRemoved: removed,
	}
	// Split informational quotient/remainder back out.
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
	return res, true
}

// tentativeCover builds divideWithParts' pre-removal division structure
// f = (qPart ∧ y) + rem over the union space plus the divisor signal.
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

// regionRARRebuild removes redundant wires inside node f's region of a
// working copy: literal pins of f's cubes (stuck-at-1) and cube pins at the
// node's OR (stuck-at-0). Pins carrying the divisor literal are never
// tested — they realize the added redundancy and define the division form.
// Removals are extracted back into the node's SOP after every pass (a
// removal can enable further removals). Returns the number of wires
// removed.
//
// Every pass rebuilds the working copy's netlist: the clone path (the
// Audit reference) and GDC trials. GDC trials must rebuild: their learning
// pass examines at most 32 unjustified gates, lowest id first, so which
// gates it examines depends on the gate numbering, and only a fresh build
// numbers the gates as a build of the working network does. The other
// trials patch (rarPatched) and run identical region-local implications —
// the patched netlist differs from a fresh build only by orphaned cube
// gates with no live fanout, which region scopes, dominator walks, and TFO
// marks never reach.
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
			sc.scope = localScope(sc.scope[:0], b, nl, f, d)
			opt.Scope = sc.scope
		}
		e := sc.engine(nl, opt)

		changed, n := rarPass(e, nl, b, ng, d, stopAfter)
		removed += n
		if !changed {
			return removed
		}
		fn := work.Node(f)
		work.SetNodeCover(f, extractNode(sc, nl, b, fn.Fanins, f))
	}
	return removed
}

// rarPatched runs RAR on base build b for f's working function (fanins,
// cov): f's structure is patched in per pass and rolled back byte-exactly
// in between and on return, so b is unchanged afterwards. Only
// region-local (stopAfter=1, scoped) implications run here — see
// regionRARRebuild. Returns f's cover after the removals and the number of
// wires removed.
func rarPatched(sc *scratch, b *netlist.Build, f, d string, fanins []string, cov cube.Cover) (cube.Cover, int) {
	nl := b.NL
	oldNG := b.Nodes[f]
	nl.BeginTx()
	defer func() {
		nl.EndTx()
		b.Nodes[f] = oldNG
	}()
	work := network.Node{Name: f, Fanins: fanins}
	removed := 0
	for pass := 0; pass < 8; pass++ {
		if pass > 0 {
			nl.RollbackTx()
		}
		work.Cover = cov
		ng := b.PatchNode(f, &work)
		sc.scope = localScope(sc.scope[:0], b, nl, f, d)
		e := sc.engine(nl, atpg.Options{Scope: sc.scope})

		changed, n := rarPass(e, nl, b, ng, d, 1)
		removed += n
		if !changed {
			break
		}
		cov = extractNode(sc, nl, b, fanins, f)
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
// netlist into a cover over the node's current fanins. sc.fanGates holds
// the fanins' signal gates while it runs.
func extractNode(sc *scratch, nl *netlist.Netlist, b *netlist.Build, fanins []string, f string) cube.Cover {
	ng := b.Nodes[f]
	n := len(fanins)
	sigs := sc.fanGates[:0]
	for _, sig := range fanins {
		sigs = append(sigs, nl.Signal[sig])
	}
	sc.fanGates = sigs
	cov := cube.NewCover(n)
	for _, pin := range nl.Fanins(ng.Out) {
		// pin is a cube AND gate.
		c := cube.New(n)
		for _, lg := range nl.Fanins(pin) {
			// A gate that is no literal of this node is skipped (shouldn't
			// happen).
			if v, p, ok := literalOf(nl, sigs, lg); ok {
				c.Set(v, p)
			}
		}
		cov.Cubes = append(cov.Cubes, c)
	}
	return cov.SCC()
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

// localScope appends to dst the paper's region-restricted implication
// scope for dividing f by d (see appendNodeScope) and returns the list.
func localScope(dst []int, b *netlist.Build, nl *netlist.Netlist, f, d string) []int {
	return appendNodeScope(appendNodeScope(dst, b, nl, f), b, nl, d)
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
