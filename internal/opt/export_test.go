package opt

import (
	"sort"

	"repro/internal/algebraic"
	"repro/internal/network"
)

// Seams for the external tests in package opt_test, which import
// internal/script and so cannot live in package opt.
var (
	BestKernel    = bestKernel
	ExtractKernel = extractKernel
)

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
