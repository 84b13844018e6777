package opt

import (
	"repro/internal/atpg"
	"repro/internal/cube"
	"repro/internal/mini"
	"repro/internal/netlist"
	"repro/internal/network"
)

// FullSimplify minimizes every node with satisfiability don't cares
// discovered by the implication engine (the spirit of SIS full_simplify,
// built on the same machinery as the paper's GDC configuration): a
// combination of fanin values that the implication engine proves
// unsatisfiable — pairs (yi=a, yj=b) whose joint assertion conflicts — can
// never reach the node, so it is a don't-care cube for its local cover.
//
// Don't cares are NOT compatible across simultaneous changes (the classic
// CODC problem), so the netlist and implication engine are rebuilt from the
// current network after every committed change; each node's don't cares are
// therefore justified by the circuit as it stands when they are used.
//
// learnDepth sets the recursive-learning depth (0 = direct implications).
// Returns the SOP literal reduction.
func FullSimplify(nw *network.Network, learnDepth int) int {
	before := nw.SOPLits()
	pending := append([]string(nil), nw.TopoOrder()...)
	for len(pending) > 0 {
		b := netlist.FromNetwork(nw)
		nl := b.NL
		opt := atpg.Options{}
		if learnDepth > 0 {
			opt.Learn = true
			opt.LearnDepth = learnDepth
		}
		e := atpg.NewEngine(nl, opt)
		committed := false
		for len(pending) > 0 && !committed {
			name := pending[0]
			pending = pending[1:]
			if simplifyNodeWithSDC(nw, nl, e, name) {
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

// simplifyNodeWithSDC computes implication-derived don't cares for one node
// and commits a smaller cover when found. Returns whether a change was
// committed.
func simplifyNodeWithSDC(nw *network.Network, nl *netlist.Netlist, e *atpg.Engine, name string) bool {
	n := nw.Node(name)
	if n == nil {
		return false
	}
	k := len(n.Fanins)
	if k < 2 || n.Cover.NumCubes() == 0 {
		return false
	}
	impossible := func(g1 int, v1 atpg.Value, g2 int, v2 atpg.Value) bool {
		e.Reset()
		if !e.Assign(g1, v1) || !e.Propagate() {
			return true
		}
		if g2 < 0 {
			return false
		}
		if !e.Assign(g2, v2) || !e.Propagate() {
			return true
		}
		return false
	}
	dc := cube.NewCover(k)
	for i := 0; i < k; i++ {
		gi, ok := nl.Signal[n.Fanins[i]]
		if !ok {
			continue
		}
		for _, vi := range []atpg.Value{atpg.Zero, atpg.One} {
			if impossible(gi, vi, -1, atpg.Zero) {
				c := cube.New(k)
				c.Set(i, phaseOf(vi))
				dc.Add(c)
			}
		}
		for j := i + 1; j < k; j++ {
			gj, ok := nl.Signal[n.Fanins[j]]
			if !ok {
				continue
			}
			for _, vi := range []atpg.Value{atpg.Zero, atpg.One} {
				for _, vj := range []atpg.Value{atpg.Zero, atpg.One} {
					if impossible(gi, vi, gj, vj) {
						c := cube.New(k)
						c.Set(i, phaseOf(vi))
						c.Set(j, phaseOf(vj))
						dc.Add(c)
					}
				}
			}
		}
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

func phaseOf(v atpg.Value) cube.Phase {
	if v == atpg.One {
		return cube.Pos
	}
	return cube.Neg
}
