package core

import (
	"repro/internal/algebraic"
	"repro/internal/cube"
	"repro/internal/mini"
	"repro/internal/network"
)

// Simulation-signature divisor prefilter.
//
// The plan/commit engine only ever commits a plan with positive
// factored-literal gain, so the filter is free to reject any candidate that
// provably cannot yield one — not just candidates whose exact trial returns
// ok=false. The rejection logic rests on the soundness of the implication
// engine: RemoveIfUntestable deletes a wire only after PROVING its stuck-at
// fault untestable (a conflict among the fault's mandatory assignments and
// their implications). A concrete input pattern that satisfies every
// mandatory assignment is a counterexample no such proof can coexist with —
// the engine is forced to keep the wire. The signature table records each
// signal's value on SigWords×64 sampled input patterns, so the filter can
// search for counterexample patterns ("witnesses") among the samples:
//
//	Witnessed trial: every division installs the tentative structure
//	f = (qPart ∧ y) + rem and runs RAR over the node's pins. When every
//	unprotected pin has a sampled witness, the first RAR pass removes
//	nothing and returns the tentative cover VERBATIM. The filter replays
//	the tentative-cover construction through the same tentativeCover code
//	path the division uses (for POS, also the final complement + bound +
//	minimize of posDivide) and computes the exact resulting gain; if it is
//	not positive, the trial cannot produce a committable plan.
//
//	Witness terms: a pin's mandatory assignments are its fault activation
//	(literal at 0 with every sibling pin at 1, or the cube alone at 1 for
//	a cube pin at the node OR), node exposure (every other tentative cube
//	at 0 — the OR's side pins), and non-controlling side values along the
//	single-fanout dominator chain past the node output. The last group is
//	discharged by observability: on a sampled pattern where complementing
//	f's output flips a primary output (ObsCare), every dominator of the
//	node output toggles too, so its side pins are necessarily
//	non-controlling there. Literal pins need the observability term only
//	when the engine walks real dominators (ExtendedGDC; POS division
//	degrades that to Extended internally). Cube pins sit at the node
//	output, so even stopAfter=1 walks one dominator past it — but that
//	walk only reaches a gate at all when the output has a single netlist
//	fanout, and then the requirement is exactly that gate's side pins
//	(nodeOutDomTerm), far cheaper than full observability. Windowed
//	division can turn a multi-fanout output into a single-fanout one
//	inside the window, so a window depth forces the full ObsCare term.
//	ObsCare is computed against the pre-trial network, which is valid
//	because the tentative node is functionally identical to f (for POS,
//	to f̄ — a pure output complement, which sensitizes the same paths).
//
//	Extended division: a vote is valid only if the engine proves some
//	structurally containing divisor cube 0 across all tests of a dividend
//	wire (or proves the wire redundant outright). A sampled pattern that
//	satisfies the wire fault's mandatory assignments AND sets the divisor
//	cube to 1 refutes that proof. When every (wire of a contained cube,
//	containing divisor cube) pair is refuted, no vote validates, the core
//	selection scores zero, and extendedDivide fails. Wires of uncontained
//	cubes never validate a core — no refutation needed.
//
//	Empty quotient part: when no dividend cube is contained by a divisor
//	cube, every division form fails outright (and no extended vote can
//	validate), so the candidate is rejected unconditionally.
//
// Because a rejected candidate's trial provably either fails or yields a
// plan with gain ≤ 0 — which the driver never commits — the filter can
// only skip trials, never change which plans commit: the committed network
// is byte-identical with the filter on or off
// (TestSubstituteSigFilterInvariant).
//
// (The signature idea follows simulation-guided resubstitution — Lee et
// al., ICCAD 2020 — adapted here to refuting Boolean division's
// redundancy-removal proofs.)

// formSigs holds the per-dividend signature data for one division space:
// the dividend's SOP cover for plain and complement-phase division, or its
// minimized complement for POS.
type formSigs struct {
	cover cube.Cover            // the dividend-side cover the division form uses
	lits  [][]int               // lits[i]: variable index of each literal of cube i
	sigs  []network.Signature   // signature of each cube
	act   [][]network.Signature // act[i][j]: activation of cube i's j-th literal pin
	// (the literal at 0, every sibling literal at 1)
}

// newFormSigs evaluates the cover's cube and pin-activation signatures.
// ok=false when a fanin signature is unavailable.
func newFormSigs(t *network.SigTable, cov cube.Cover, fanins []string) (*formSigs, bool) {
	fs := &formSigs{cover: cov}
	for _, c := range cov.Cubes {
		lits := c.Lits()
		litSigs := make([]network.Signature, len(lits))
		for j, v := range lits {
			s, ok := t.Sig(fanins[v])
			if !ok {
				return nil, false
			}
			if c.Get(v) == cube.Neg {
				s = s.Not()
			}
			litSigs[j] = s
		}
		cs := network.AllOnes()
		for _, s := range litSigs {
			cs = cs.And(s)
		}
		act := make([]network.Signature, len(lits))
		for j := range lits {
			a := litSigs[j].Not()
			for k, s := range litSigs {
				if k != j {
					a = a.And(s)
				}
			}
			act[j] = a
		}
		fs.lits = append(fs.lits, lits)
		fs.sigs = append(fs.sigs, cs)
		fs.act = append(fs.act, act)
	}
	return fs, true
}

// simSigFilter holds the per-dividend signature data consulted by admits.
// A nil filter admits everything (signatures disabled or unavailable).
type simSigFilter struct {
	table      *network.SigTable
	nw         network.Reader
	f          string
	fn         *network.Node
	cc         *complCache
	maxCompl   int
	costBefore int               // FactorLits of f's cover — planPair's gain baseline
	care       network.Signature // patterns where complementing f flips a PO (gdc/windowed)
	dom        network.Signature // cube-pin dominator-side term (see nodeOutDomTerm)
	gdc        bool              // removal proofs walk real dominators (ExtendedGDC)
	ext        bool              // extended division runs for plain candidates

	sop     *formSigs // f's SOP cover (plain and complement-phase candidates)
	pos     *formSigs // f's minimized complement (POS candidates); nil = admit POS
	posInit bool      // pos is built lazily, on the first POS candidate
}

// newSimSigFilter builds the filter for dividend f, on the serial side of
// the engine (it reads the complement cache and assumes a refreshed table).
// Returns nil when filtering is off or no signature information exists.
func newSimSigFilter(nw network.Reader, f string, cc *complCache, opt Options) *simSigFilter {
	if opt.NoSigFilter {
		return nil
	}
	t := nw.Sigs()
	if t == nil {
		return nil
	}
	maxCompl := opt.MaxComplementCubes
	if maxCompl <= 0 {
		maxCompl = DefaultMaxComplementCubes
	}
	// Real-dominator walks (ExtendedGDC) and windowed division need the
	// full observability term; without it those witnesses are unsound, so
	// the filter is useless if it cannot be computed.
	gdc := opt.Config == ExtendedGDC
	needCare := gdc || opt.WindowDepth > 0
	var care network.Signature
	if needCare {
		var ok bool
		care, ok = t.ObsCare(f)
		if !ok {
			return nil
		}
	}
	fn := nw.Node(f)
	sop, ok := newFormSigs(t, fn.Cover, fn.Fanins)
	if !ok {
		return nil
	}
	sf := &simSigFilter{
		table:      t,
		nw:         nw,
		f:          f,
		fn:         fn,
		cc:         cc,
		maxCompl:   maxCompl,
		costBefore: algebraic.FactorLits(fn.Cover),
		care:       care,
		dom:        care,
		gdc:        gdc,
		ext:        opt.Config != Basic,
		sop:        sop,
	}
	if !needCare {
		sf.dom = nodeOutDomTerm(t, nw, f)
	}
	return sf
}

// posForm returns the dividend-side signature data for POS candidates,
// built on first use (most dividends never see a POS candidate, and the
// minimized complement is not free). nil = admit.
func (sf *simSigFilter) posForm() *formSigs {
	if !sf.posInit {
		sf.posInit = true
		// posDivide minimizes the complement before the SOS split; the
		// witnesses must be stated over those same cubes.
		if fcMin, ok := sf.cc.getMin(sf.nw, sf.f); ok {
			if pos, ok := newFormSigs(sf.table, fcMin, sf.fn.Fanins); ok {
				sf.pos = pos
			}
		}
	}
	return sf.pos
}

// nodeOutDomTerm computes the witness requirement contributed by the
// dominator walk past f's node output at stopAfter=1: the side pins of the
// first single-fanout dominator must be non-controlling. A directly
// observable output or one with several netlist fanouts (several positive
// literal uses, or a positive and a negative use) has no such dominator and
// the term is vacuous; a single negative use feeds the inverter, which has
// no side pins; a single positive use makes the using cube's other literals
// the dominator's side pins.
func nodeOutDomTerm(t *network.SigTable, nw network.Reader, f string) network.Signature {
	for _, po := range nw.POs() {
		if po == f {
			return network.AllOnes()
		}
	}
	posUses := 0
	negUse := false
	var host *network.Node
	var hostCube cube.Cube
	for _, h := range nw.Nodes() {
		v := indexOf(h.Fanins, f)
		if v < 0 {
			continue
		}
		for _, c := range h.Cover.Cubes {
			switch c.Get(v) {
			case cube.Pos:
				posUses++
				host, hostCube = h, c
			case cube.Neg:
				negUse = true
			}
		}
	}
	occ := posUses
	if negUse {
		occ++
	}
	if occ != 1 || negUse {
		// Multi-fanout (or dead) output: the dominator walk stops at once.
		// Single negative use: the inverter dominates but has no side pins.
		return network.AllOnes()
	}
	v := indexOf(host.Fanins, f)
	term := network.AllOnes()
	for _, u := range hostCube.Lits() {
		if u == v {
			continue
		}
		s, ok := t.Sig(host.Fanins[u])
		if !ok {
			// Unknown side value: no sampled witness can discharge it.
			return network.Signature{}
		}
		if hostCube.Get(u) == cube.Neg {
			s = s.Not()
		}
		term = term.And(s)
	}
	return term
}

// cubeSigsOf evaluates every cube of cov on the sampled patterns.
func cubeSigsOf(t *network.SigTable, cov cube.Cover, fanins []string) ([]network.Signature, bool) {
	out := make([]network.Signature, cov.NumCubes())
	for i, c := range cov.Cubes {
		s, ok := t.CubeSig(c, fanins)
		if !ok {
			return nil, false
		}
		out[i] = s
	}
	return out, true
}

// othersOrOf returns, for each index i, the OR of every signature except
// sigs[i] (prefix/suffix sweep).
func othersOrOf(sigs []network.Signature) []network.Signature {
	out := make([]network.Signature, len(sigs))
	var pre network.Signature
	for i, s := range sigs {
		out[i] = pre
		pre = pre.Or(s)
	}
	var suf network.Signature
	for i := len(sigs) - 1; i >= 0; i-- {
		out[i] = out[i].Or(suf)
		suf = suf.Or(sigs[i])
	}
	return out
}

// admits reports whether the candidate passes the witness analysis, i.e.
// may yield a committable (positive-gain) plan in its division form.
// Conservative: any missing information admits.
//
//bdslint:hotpath
func (sf *simSigFilter) admits(cand candidate) bool {
	if sf == nil {
		return true
	}
	dn := sf.nw.Node(cand.name)
	if dn == nil {
		return true
	}
	switch {
	case cand.neg:
		// f = q·d' + r: division runs against d's complement cover.
		dcov, ok := sf.cc.get(sf.nw, cand.name)
		if !ok {
			return true
		}
		return sf.admitsForm(sf.sop, dcov, dn.Fanins, cand.name, cube.Neg, false, false)
	case cand.pos:
		// POS runs the SOS machinery on the minimized complement pair.
		fs := sf.posForm()
		if fs == nil {
			return true
		}
		dcov, ok := sf.cc.getMin(sf.nw, cand.name)
		if !ok {
			return true
		}
		return sf.admitsForm(fs, dcov, dn.Fanins, cand.name, cube.Neg, true, false)
	default:
		// Basic/extended division against d's own cover.
		return sf.admitsForm(sf.sop, dn.Cover, dn.Fanins, cand.name, cube.Pos, false, true)
	}
}

// admitsForm runs the witness analysis for one division form: fs is the
// dividend-side signature data, dcov/dFanins the divisor-side cover the
// form divides by (for POS, the memoized minimized complement — the cover
// posDivide itself divides by).
func (sf *simSigFilter) admitsForm(fs *formSigs, dcov cube.Cover, dFanins []string, d string, yPhase cube.Phase, posForm, plain bool) bool {
	const admit = true
	dDiv := dcov
	dsigs, ok := cubeSigsOf(sf.table, dDiv, dFanins)
	if !ok {
		return admit
	}
	ds, ok := sf.table.Sig(d)
	if !ok {
		return admit
	}
	sigY := ds
	if yPhase == cube.Neg {
		sigY = sigY.Not()
	}
	fn := sf.fn
	union := unionSignals(fn.Fanins, dFanins)
	fU := network.RemapCover(fs.cover, fn.Fanins, union)
	dU := network.RemapCover(dDiv, dFanins, union)

	n := len(fs.cover.Cubes)
	qPos := make([]bool, n)
	hasQ := false
	for i, c := range fU.Cubes {
		if anyCubeContains(dU, c) {
			qPos[i] = true
			hasQ = true
		}
	}
	if !hasQ {
		// Empty quotient part: every division form fails outright, and no
		// extended vote can validate a core.
		return false
	}

	// Tentative cube signatures: a quotient-position cube is ANDed with the
	// divisor literal; a cube already carrying the opposite literal is
	// dropped by tentativeCover (its signature goes to zero on every
	// sample, so the exposure terms need no special case — only the pin
	// enumeration skips it).
	yVar := indexOf(fn.Fanins, d)
	tsig := make([]network.Signature, n)
	live := make([]bool, n)
	for i := range fs.cover.Cubes {
		live[i] = true
		tsig[i] = fs.sigs[i]
		if qPos[i] {
			tsig[i] = tsig[i].And(sigY)
			if yVar >= 0 {
				if p := fs.cover.Cubes[i].Get(yVar); p != cube.Free && p != yPhase {
					live[i] = false
				}
			}
		}
	}
	othersOr := othersOrOf(tsig)
	gdcLit := sf.gdc && !posForm // POS degrades ExtendedGDC to Extended
	for i := range fs.cover.Cubes {
		if !live[i] {
			continue
		}
		oz := othersOr[i].Not()
		// Cube pin at the node OR (stuck-at-0): the cube alone at 1, and
		// the dominator past the node output sensitized.
		if tsig[i].And(oz).And(sf.dom).IsZero() {
			return admit
		}
		// Literal pins (stuck-at-1): activation with every sibling pin at
		// 1 — including the added divisor pin on quotient cubes — and the
		// node exposed.
		for j, v := range fs.lits[i] {
			if v == yVar {
				continue // divisor-literal pins are protected, never tested
			}
			w := fs.act[i][j].And(oz)
			if qPos[i] {
				w = w.And(sigY)
			}
			if gdcLit {
				w = w.And(sf.care)
			}
			if w.IsZero() {
				return admit
			}
		}
	}

	if plain && sf.ext {
		// Extended division votes on the ORIGINAL cover's wires; refute
		// every (wire, containing divisor cube) proof obligation.
		osig := othersOrOf(fs.sigs)
		nD := dU.NumCubes()
		if nD > maxCoreCubes {
			nD = maxCoreCubes
		}
		for i := range fs.cover.Cubes {
			if !qPos[i] {
				continue // votes from uncontained cubes never validate a core
			}
			oz := osig[i].Not()
			for j := range fs.lits[i] {
				base := fs.act[i][j].And(oz)
				if sf.gdc {
					base = base.And(sf.care)
				}
				for k := 0; k < nD; k++ {
					if !dU.Cubes[k].Contains(fU.Cubes[i]) {
						continue
					}
					if base.And(dsigs[k]).IsZero() {
						return admit
					}
				}
			}
		}
	}

	// Every pin is witnessed and no extended core can validate: the exact
	// trial returns the tentative cover verbatim; admit iff it alone gains.
	return sf.noRemovalGain(fU, dU, qPos, union, d, yPhase, posForm) > 0
}

// noRemovalGain computes the exact factored-literal gain of a division in
// which redundancy removal removes nothing, by replaying the division's own
// cover construction: the SOS split over the union space, the shared
// tentativeCover, and for POS the final complement + cube bound + minimize
// of posDivide. Returns a large negative value when the exact trial would
// fail outright (oversized POS result).
func (sf *simSigFilter) noRemovalGain(fU, dU cube.Cover, qPos []bool, union []string, d string, yPhase cube.Phase, posForm bool) int {
	const fail = -1 << 30
	nv := fU.NumVars()
	qPart, rem := cube.NewCover(nv), cube.NewCover(nv)
	for i, c := range fU.Cubes {
		if qPos[i] {
			qPart.Cubes = append(qPart.Cubes, c)
		} else {
			rem.Cubes = append(rem.Cubes, c)
		}
	}
	tentative, _ := tentativeCover(union, d, qPart, rem, yPhase)
	if !posForm {
		return sf.costBefore - algebraic.FactorLits(tentative)
	}
	final := tentative.Complement()
	if final.NumCubes() > 4*sf.maxCompl {
		return fail
	}
	final = mini.Minimize(final, mini.Options{})
	return sf.costBefore - algebraic.FactorLits(final)
}
