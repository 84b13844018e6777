package opt

import (
	"repro/internal/algebraic"
	"repro/internal/bdd"
	"repro/internal/cube"
	"repro/internal/network"
)

// ResubBDD performs Boolean resubstitution with BDD-based division — the
// related-work method of the paper's reference [14] (Stanion & Sechen):
// over the union fanin space, q = f↓d (generalized cofactor) and
// r = f ∧ d̄ give f = q·d + r exactly; quotient and remainder are converted
// back to covers by irredundant-SOP extraction and the rewrite committed on
// positive factored-literal gain. Serves as the baseline the RAR approach
// is measured against in the ablation benchmarks. Returns the substitution
// count.
//
// A commit rewrites one node's function and adds or removes no node, so
// each pass lists the divisor names once, and one BDD manager, reset per
// pair, serves every pair.
func ResubBDD(nw *network.Network) int {
	count := 0
	m := bdd.NewManager(0)
	for pass := 0; pass < 2; pass++ {
		changed := false
		names := nw.TopoOrder()
		divisors := nw.SortedNodeNames()
		for i := len(names) - 1; i >= 0; i-- {
			f := names[i]
			fn := nw.Node(f)
			if fn == nil || fn.Cover.IsZero() {
				continue
			}
			for _, d := range divisors {
				if d == f || nw.DependsOn(d, f) {
					continue
				}
				if tryBDDResub(nw, m, f, d) {
					count++
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	return count
}

// maxBDDISOPCubes bounds the covers extracted from BDD division results.
const maxBDDISOPCubes = 64

// tryBDDResub divides f by d with manager m, which it resets, and commits
// the rewrite when it gains.
func tryBDDResub(nw *network.Network, m *bdd.Manager, f, d string) bool {
	fn, dn := nw.Node(f), nw.Node(d)
	if dn.Cover.IsZero() || (dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse()) {
		return false
	}
	// Quick shared-support filter.
	shared := false
	for _, s := range dn.Fanins {
		if fn.FaninIndex(s) >= 0 {
			shared = true
			break
		}
	}
	if !shared {
		return false
	}
	union := unionSignals(fn.Fanins, dn.Fanins)
	fU := network.RemapCover(fn.Cover, fn.Fanins, union)
	dU := network.RemapCover(dn.Cover, dn.Fanins, union)
	m.Reset(len(union))
	fB := m.FromCover(fU)
	dB := m.FromCover(dU)
	if dB == bdd.Zero || dB == bdd.One {
		return false
	}
	before := algebraic.FactorLits(fn.Cover)

	for _, phase := range []cube.Phase{cube.Pos, cube.Neg} {
		div := dB
		if phase == cube.Neg {
			div = m.Not(dB)
			if div == bdd.Zero {
				continue
			}
		}
		// Interval-ISOP with the division's natural don't cares: off the
		// divisor the quotient is free (q ∈ [f∧d, f∨d̄]); on the divisor the
		// remainder is free (r ∈ [f∧d̄, f]).
		if m.And(fB, div) == bdd.Zero {
			continue // quotient would be constant 0
		}
		qCov, ok := m.ISOPInterval(m.And(fB, div), m.Or(fB, m.Not(div)), maxBDDISOPCubes)
		if !ok {
			continue
		}
		rCov, ok := m.ISOPInterval(m.And(fB, m.Not(div)), fB, maxBDDISOPCubes)
		if !ok {
			continue
		}
		// Assemble f = q·y + r over union + y.
		space := union
		yIdx := indexOf(union, d)
		if yIdx < 0 {
			yIdx = len(space)
			space = append(append([]string(nil), union...), d)
		}
		n := len(space)
		out := cube.NewCover(n)
		dropped := false
		for _, c := range qCov.Cubes {
			k := cube.New(n)
			for _, v := range c.Lits() {
				k.Set(v, c.Get(v))
			}
			if p := k.Get(yIdx); p != cube.Free && p != phase {
				dropped = true
				break
			}
			k.Set(yIdx, phase)
			out.Cubes = append(out.Cubes, k)
		}
		if dropped {
			continue // quotient mentions the divisor's own variable oddly
		}
		for _, c := range rCov.Cubes {
			k := cube.New(n)
			for _, v := range c.Lits() {
				k.Set(v, c.Get(v))
			}
			out.Cubes = append(out.Cubes, k)
		}
		out = out.SCC()
		if before-algebraic.FactorLits(out) <= 0 {
			continue
		}
		if err := nw.ReplaceNodeFunction(f, space, out); err != nil {
			continue
		}
		nw.NormalizeNode(f)
		return true
	}
	return false
}
