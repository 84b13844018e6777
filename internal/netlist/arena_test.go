package netlist

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cube"
	"repro/internal/network"
)

// sameNetlist reports the first difference between two builds, gate for
// gate and NodeGates for NodeGates, or nil when they are identical.
func sameNetlist(got, want *Build) error {
	g, w := got.NL, want.NL
	if g.NumGates() != w.NumGates() {
		return fmt.Errorf("%d gates, want %d", g.NumGates(), w.NumGates())
	}
	for id := 0; id < w.NumGates(); id++ {
		if g.KindOf(id) != w.KindOf(id) || g.NameOf(id) != w.NameOf(id) ||
			!slices.Equal(g.Fanins(id), w.Fanins(id)) || !slices.Equal(g.Fanouts(id), w.Fanouts(id)) || g.IsPO(id) != w.IsPO(id) {
			return fmt.Errorf("gate %d differs", id)
		}
	}
	if !slices.Equal(g.POs, w.POs) || !slices.Equal(g.PONames, w.PONames) || len(g.Signal) != len(w.Signal) {
		return fmt.Errorf("outputs or signal map differ")
	}
	for name, id := range w.Signal {
		if g.Signal[name] != id {
			return fmt.Errorf("signal %q: gate %d, want %d", name, g.Signal[name], id)
		}
	}
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for name, wn := range want.Nodes {
		gn := got.Nodes[name]
		if gn == nil || gn.Out != wn.Out || !slices.Equal(gn.Cubes, wn.Cubes) {
			return fmt.Errorf("node %q: NodeGates %v, want %v", name, gn, wn)
		}
	}
	return nil
}

// regionOf returns the network holding exactly node f and its fanin nodes,
// with their other fanins as primary inputs and f as the output, and the
// same region as the ID lists BuildRegion takes over nw.
func regionOf(nw *network.Network, f string) (*network.Network, []network.SigID, []network.SigID, []network.SigID) {
	fn := nw.Node(f)
	var nodes []string
	for _, s := range fn.Fanins {
		if nw.Node(s) != nil {
			nodes = append(nodes, s)
		}
	}
	nodes = append(nodes, f)
	var ins []string
	for _, n := range nodes {
		for _, s := range nw.Node(n).Fanins {
			if !slices.Contains(nodes, s) && !slices.Contains(ins, s) {
				ins = append(ins, s)
			}
		}
	}
	sub := network.New("region")
	for _, s := range ins {
		sub.AddPI(s)
	}
	for _, n := range nodes {
		sub.AddNode(n, nw.Node(n).Fanins, nw.Node(n).Cover)
	}
	sub.AddPO(f)
	ids := func(names []string) []network.SigID {
		var out []network.SigID
		for _, s := range names {
			id, _ := nw.IDOf(s)
			out = append(out, id)
		}
		return out
	}
	return sub, ids(sub.PIs()), ids(sub.TopoOrder()), ids([]string{f})
}

// TestBuilderArenaMatchesFreshBuilds drives one Builder through builds and
// region builds of different sizes, in an order that grows and shrinks its
// gate arena, and a transaction that patches two nodes, rolls back and
// patches them again: every build must match a fresh FromNetwork gate for
// gate and NodeGates for NodeGates, a patched node's structure must
// survive patching the other, and the rolled-back netlist must match the
// fresh build again.
func TestBuilderArenaMatchesFreshBuilds(t *testing.T) {
	var nets []*network.Network
	for _, gates := range []int{40, 400, 120} {
		nw, err := bench.Generate("rand", gates, 12, int64(gates))
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, nw)
	}
	b := NewBuilder()
	for round, k := range []int{0, 1, 2, 0, 1, 1, 2} {
		nw := nets[k]
		if err := sameNetlist(b.Build(nw), FromNetwork(nw)); err != nil {
			t.Fatalf("round %d: Build: %v", round, err)
		}
		names := nw.TopoOrder()
		f := names[len(names)-1-round]
		sub, ins, nodes, outs := regionOf(nw, f)
		if err := sameNetlist(b.BuildRegion(nw, ins, nodes, outs), FromNetwork(sub)); err != nil {
			t.Fatalf("round %d: BuildRegion around %s: %v", round, f, err)
		}
	}

	nw := nets[1]
	build := b.Build(nw)
	names := nw.TopoOrder()
	// Two nodes, each rewritten to the OR of its negated fanins: any cover
	// over the node's own fanins will do.
	var patch []*network.Node
	for _, name := range []string{names[len(names)-1], names[len(names)/2]} {
		n := nw.Node(name)
		cov := cube.NewCover(len(n.Fanins))
		for v := range n.Fanins {
			c := cube.New(len(n.Fanins))
			c.Set(v, cube.Neg)
			cov.Cubes = append(cov.Cubes, c)
		}
		patch = append(patch, &network.Node{Name: name, Fanins: n.Fanins, Cover: cov})
	}
	old := []*NodeGates{build.Nodes[patch[0].Name], build.Nodes[patch[1].Name]}
	checkPatched := func(ng *NodeGates, n *network.Node) {
		t.Helper()
		if len(ng.Cubes) != n.Cover.NumCubes() || !slices.Equal(build.NL.Fanins(ng.Out), ng.Cubes) {
			t.Fatalf("patched %s: NodeGates %v does not carry its %d cubes", n.Name, ng, n.Cover.NumCubes())
		}
		for i, g := range ng.Cubes {
			if fan := build.NL.Fanins(g); len(fan) != 1 || build.NL.KindOf(fan[0]) != Not ||
				build.NL.Fanins(fan[0])[0] != build.NL.Signal[n.Fanins[i]] {
				t.Fatalf("patched %s: cube gate %d reads %v", n.Name, i, fan)
			}
		}
	}
	build.NL.BeginTx()
	for round := 0; round < 3; round++ {
		if round > 0 {
			build.NL.RollbackTx()
		}
		first, second := patch[round%2], patch[1-round%2]
		ng1 := build.PatchNode(first.Name, first)
		ng2 := build.PatchNode(second.Name, second)
		checkPatched(ng1, first)
		checkPatched(ng2, second)
	}
	build.NL.RollbackTx()
	build.Nodes[patch[0].Name], build.Nodes[patch[1].Name] = old[0], old[1]
	if err := sameNetlist(build, FromNetwork(nw)); err != nil {
		t.Fatalf("after RollbackTx: %v", err)
	}
	build.NL.EndTx()
}
