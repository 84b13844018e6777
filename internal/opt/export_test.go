package opt

import (
	"sort"

	"repro/internal/algebraic"
	"repro/internal/cube"
	"repro/internal/network"
)

// Seams for the external tests in package opt_test, which import
// internal/script and so cannot live in package opt.
var (
	BestKernel         = bestKernel
	ExtractKernel      = extractKernel
	PlanAlgebraicResub = planAlgebraicResub
)

// PlanAlgebraicResubUnfiltered is planAlgebraicResub without the literal
// prefilter: both phases are divided whatever signals the divisor reads.
// It is the reference the prefilter must reproduce, plan for plan.
func PlanAlgebraicResubUnfiltered(nw network.Reader, f, d string, useComplement bool) []algPlan {
	fn, dn := nw.Node(f), nw.Node(d)
	if dn.Cover.IsZero() || (dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse()) {
		return nil
	}
	union := unionSignals(fn.Fanins, dn.Fanins)
	fU := network.RemapCover(fn.Cover, fn.Fanins, union)
	dU := network.RemapCover(dn.Cover, dn.Fanins, union)
	before := algebraic.FactorLits(fn.Cover)

	var out []algPlan
	if p, ok := planQuotient(union, fU, dU, d, cube.Pos, before); ok {
		out = append(out, p)
	}
	if useComplement {
		if dc, ok := dn.Cover.ComplementAtMost(24); ok && !dc.IsZero() {
			dcU := network.RemapCover(dc, dn.Fanins, union)
			if p, ok := planQuotient(union, fU, dcU, d, cube.Neg, before); ok {
				out = append(out, p)
			}
		}
	}
	return out
}

// BestKernelUnfiltered is bestKernel without the fanin prefilter: every
// kernel is divided into every node. It is the reference the prefilter must
// reproduce, kernel and gain.
func BestKernelUnfiltered(nw *network.Network) (globalKernel, int) {
	seen := make(map[string]globalKernel)
	for _, n := range nw.Nodes() {
		for _, k := range algebraic.Kernels(n.Cover, 40) {
			if k.K.NumCubes() < 2 {
				continue
			}
			gk := liftKernel(k.K, n.Fanins)
			seen[gkKey(gk)] = gk
		}
	}
	var bestK globalKernel
	bestGain := 0
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		gk := seen[key]
		gain := -gk.cover.NumLits()
		for _, n := range nw.Nodes() {
			union := unionSignals(n.Fanins, gk.fanins)
			fU := network.RemapCover(n.Cover, n.Fanins, union)
			kU := network.RemapCover(gk.cover, gk.fanins, union)
			q, r := algebraic.WeakDivide(fU, kU)
			if q.IsZero() {
				continue
			}
			after := q.NumLits() + q.NumCubes() + r.NumLits()
			if d := n.Cover.NumLits() - after; d > 0 {
				gain += d
			}
		}
		if gain > bestGain {
			bestGain, bestK = gain, gk
		}
	}
	return bestK, bestGain
}
