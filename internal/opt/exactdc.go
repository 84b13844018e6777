package opt

import (
	"repro/internal/cube"
	"repro/internal/mini"
	"repro/internal/network"
)

// ExactDCSimplify minimizes every node against its complete local don't-care
// set — satisfiability don't cares (fanin combinations that never occur) and
// observability don't cares (combinations whose node value never reaches a
// primary output) — computed exactly by exhaustive bit-parallel simulation.
// Only feasible for circuits with at most maxPIs primary inputs (0 = 20);
// returns the SOP literal reduction, or 0 when the circuit is too wide.
//
// Like FullSimplify, don't cares are recomputed from the current network
// after every committed change (CODC compatibility).
func ExactDCSimplify(nw *network.Network, maxPIs int) int {
	if maxPIs <= 0 {
		maxPIs = 20
	}
	if len(nw.PIs()) > maxPIs {
		return 0
	}
	before := nw.SOPLits()
	pending := append([]string(nil), nw.TopoOrder()...)
	for len(pending) > 0 {
		committed := false
		for len(pending) > 0 && !committed {
			name := pending[0]
			pending = pending[1:]
			if exactDCNode(nw, name) {
				committed = true
			}
		}
		if !committed {
			break
		}
	}
	nw.Sweep()
	return before - nw.SOPLits()
}

// exactDCNode computes the node's exact local DC set and commits a smaller
// cover if minimization finds one.
func exactDCNode(nw *network.Network, name string) bool {
	n := nw.Node(name)
	if n == nil {
		return false
	}
	k := len(n.Fanins)
	if k == 0 || k > 16 || n.Cover.NumCubes() == 0 {
		return false
	}
	pis := nw.PIs()
	nPI := len(pis)

	// For every fanin combination y ∈ {0,1}^k track:
	//   reachable[y]  — some input vector produces y at the fanins;
	//   observable[y] — some input vector produces y AND flipping the node's
	//                   output changes a primary output.
	size := 1 << k
	reachable := make([]bool, size)
	observable := make([]bool, size)

	// Two forced copies of the network: node tied to 0 and tied to 1.
	tie := func(v bool) *network.Network {
		c := nw.Clone()
		cov := cube.NewCover(0)
		if v {
			cov = cube.CoverOf(0, cube.New(0))
		}
		// Replacing with a constant cover is safe for simulation even if it
		// changes functions; we only compare the two copies.
		_ = c.ReplaceNodeFunction(name, nil, cov)
		return c
	}
	nw0, nw1 := tie(false), tie(true)

	total := uint64(1) << nPI
	for base := uint64(0); base < total; base += 64 {
		in := make(map[string]uint64, nPI)
		for i, pi := range pis {
			var w uint64
			if i < 6 {
				for b := 0; b < 64; b++ {
					if b>>i&1 == 1 {
						w |= 1 << b
					}
				}
			} else if base>>uint(i)&1 == 1 {
				w = ^uint64(0)
			}
			in[pi] = w
		}
		vals := nw.Simulate(in)
		v0 := nw0.Simulate(in)
		v1 := nw1.Simulate(in)
		valid := 64
		if total-base < 64 {
			valid = int(total - base)
		}
		for b := 0; b < valid; b++ {
			y := 0
			for i, fi := range n.Fanins {
				if vals[fi]>>b&1 == 1 {
					y |= 1 << i
				}
			}
			reachable[y] = true
			for _, po := range nw.POs() {
				if (v0[po]^v1[po])>>b&1 == 1 {
					observable[y] = true
					break
				}
			}
		}
	}

	dc := cube.NewCover(k)
	for y := 0; y < size; y++ {
		if reachable[y] && observable[y] {
			continue
		}
		m := cube.New(k)
		for i := 0; i < k; i++ {
			if y>>i&1 == 1 {
				m.Set(i, cube.Pos)
			} else {
				m.Set(i, cube.Neg)
			}
		}
		dc.Add(m)
	}
	if dc.IsZero() {
		return false
	}
	m := mini.Minimize(n.Cover, mini.Options{DC: dc})
	if m.NumLits() < n.Cover.NumLits() ||
		(m.NumLits() == n.Cover.NumLits() && m.NumCubes() < n.Cover.NumCubes()) {
		nw.SetNodeCover(name, m)
		nw.NormalizeNode(name)
		return true
	}
	return false
}
