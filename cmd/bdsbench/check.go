package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cube"
	"repro/internal/network"
)

// miterWords is the number of 64-pattern words the generated-circuit miter
// simulates: 2048 random patterns, which miss a given assignment of a
// 6-input cone with probability (63/64)^2048 ≈ e^-32, so they are
// effectively exhaustive for cones that small.
const miterWords = 32

// miter simulates a and b on the same seeded random patterns and reports
// the first primary output on which they differ. The evaluator is the
// benchmark's own, so the check does not rely on the simulator of the
// package under test.
func miter(a, b *network.Network, seed int64, words int) error {
	if err := sameNames("input", a.PIs(), b.PIs()); err != nil {
		return err
	}
	if err := sameNames("output", a.POs(), b.POs()); err != nil {
		return err
	}
	aPI, bPI := a.PIIDs(), make([]network.SigID, len(a.PIs()))
	for i, name := range a.PIs() {
		bPI[i], _ = b.IDOf(name)
	}
	aPO, bPO := a.POIDs(), make([]network.SigID, len(a.POs()))
	for i, name := range a.POs() {
		bPO[i], _ = b.IDOf(name)
	}
	va, vb := make([]uint64, a.NumSigs()), make([]uint64, b.NumSigs())
	topoA, topoB := a.TopoOrderIDs(), b.TopoOrderIDs()
	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < words; w++ {
		for i := range aPI {
			x := rng.Uint64()
			va[aPI[i]], vb[bPI[i]] = x, x
		}
		simulate(a, topoA, va)
		simulate(b, topoB, vb)
		for i := range aPO {
			if va[aPO[i]] != vb[bPO[i]] {
				return fmt.Errorf("output %s differs from the input circuit on random word %d", a.POs()[i], w)
			}
		}
	}
	return nil
}

// simulate evaluates every node of nw in topological order on one word of
// patterns; val is indexed by signal ID and holds the input words.
func simulate(nw *network.Network, topo []network.SigID, val []uint64) {
	for _, id := range topo {
		n, fanins := nw.NodeByID(id), nw.FaninIDsOf(id)
		var out uint64
		for _, c := range n.Cover.Cubes {
			w := ^uint64(0)
			for v, f := range fanins {
				switch c.Get(v) {
				case cube.Pos:
					w &= val[f]
				case cube.Neg:
					w &^= val[f]
				case cube.Empty:
					w = 0
				}
			}
			out |= w
		}
		val[id] = out
	}
}

// sameNames reports an error unless x and y hold the same names.
func sameNames(kind string, x, y []string) error {
	xs, ys := append([]string(nil), x...), append([]string(nil), y...)
	sort.Strings(xs)
	sort.Strings(ys)
	if len(xs) != len(ys) {
		return fmt.Errorf("%s count changed: %d, want %d", kind, len(ys), len(xs))
	}
	for i := range xs {
		if xs[i] != ys[i] {
			return fmt.Errorf("%s set changed: %q, want %q", kind, ys[i], xs[i])
		}
	}
	return nil
}
