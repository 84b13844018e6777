package opt

import (
	"repro/internal/atpg"
	"repro/internal/cube"
	"repro/internal/netlist"
	"repro/internal/network"
)

// RemoveRedundancies performs classic whole-network redundancy removal (the
// traditional use of the RAR machinery, Section II of the paper): every
// wire's non-controlling stuck-at fault is tested with global implications
// (plus recursive learning at the given depth, 0 = direct implications
// only); wires proved untestable are deleted and the node covers rebuilt.
// Cross-node redundancies that per-node two-level minimization cannot see
// are removed this way. Iterates to a fixed point (bounded). Returns the
// number of wires removed.
func RemoveRedundancies(nw *network.Network, learnDepth int) int {
	removed := 0
	for pass := 0; pass < 8; pass++ {
		b := netlist.FromNetwork(nw)
		nl := b.NL
		opt := atpg.Options{}
		if learnDepth > 0 {
			opt.Learn = true
			opt.LearnDepth = learnDepth
		}
		e := atpg.NewEngine(nl, opt)
		changed := false
		for _, name := range nw.TopoOrder() {
			ng := b.Nodes[name]
			for _, g := range ng.Cubes {
				for pin := len(nl.Fanins(g)) - 1; pin >= 0; pin-- {
					if atpg.RemoveIfUntestable(e, nl, atpg.Wire{Gate: g, Pin: pin}, atpg.One, -1) {
						removed++
						changed = true
					}
				}
			}
			for pin := len(nl.Fanins(ng.Out)) - 1; pin >= 0; pin-- {
				if atpg.RemoveIfUntestable(e, nl, atpg.Wire{Gate: ng.Out, Pin: pin}, atpg.Zero, -1) {
					removed++
					changed = true
				}
			}
		}
		if !changed {
			return removed
		}
		// Rebuild every node's cover from the mutated netlist.
		for _, name := range nw.TopoOrder() {
			nw.SetNodeCover(name, extractCover(nl, b, nw.Node(name)))
			nw.NormalizeNode(name)
		}
		nw.Sweep()
	}
	return removed
}

// extractCover reads a node's two-level structure back out of a (possibly
// mutated) netlist into a cover over the node's fanins.
func extractCover(nl *netlist.Netlist, b *netlist.Build, n *network.Node) cube.Cover {
	ng := b.Nodes[n.Name]
	lit := make(map[int]struct {
		v int
		p cube.Phase
	})
	for v, sig := range n.Fanins {
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
	cov := cube.NewCover(len(n.Fanins))
	for _, pin := range nl.Fanins(ng.Out) {
		c := cube.New(len(n.Fanins))
		for _, lg := range nl.Fanins(pin) {
			if l, ok := lit[lg]; ok {
				c.Set(l.v, l.p)
			}
		}
		cov.Cubes = append(cov.Cubes, c)
	}
	return cov.SCC()
}
