package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/network"
)

// checkPatchedLearning edits nw as a trial does — node f takes the body
// fb, and added, when non-nil, is a new node fb may read — and runs the
// implications of an ExtendedGDC trial (recursive learning, real dominator
// walks, no scope) per pin fault of f on three netlists of the edited
// network: a fresh build; a build of nw with the edit patched in, which
// numbers f's new gates and the added node's last and keeps f's old cube
// gates as orphans; and a build of a copy whose inputs and nodes were
// created in a shuffled order, which numbers every gate differently. Each
// fault runs alone, and again with the values one random input pattern
// gives 16 to 200 random named gates asserted on top, which makes learning
// passes exceed the 32-gate cap. All three must reach the same verdict
// every time, and for a consistent one the same value on every named
// gate. Returns how many fault tests it ran and how many were
// inconsistent.
func checkPatchedLearning(t *testing.T, label string, nw *network.Network, fb, added *network.Node) (tests, inconsistent int) {
	t.Helper()
	edited := nw.Clone()
	var adds []*network.Node
	if added != nil {
		adds = append(adds, added)
	}
	edited.Install(adds, []*network.Node{fb})
	fresh := netlist.FromNetwork(edited)
	patched := netlist.FromNetwork(nw)
	nl := patched.NL
	nl.BeginTx()
	defer nl.EndTx()
	if added != nil {
		patched.PatchNode(added.Name, added)
	}
	png := patched.PatchNode(fb.Name, fb)
	fng := fresh.Nodes[fb.Name]
	names := append([]string(nil), edited.PIs()...)
	for _, n := range edited.Nodes() {
		names = append(names, n.Name)
	}
	r := rand.New(rand.NewSource(int64(len(names))))
	shuffled := network.New("shuffled")
	for _, i := range r.Perm(len(edited.PIs())) {
		shuffled.AddPI(edited.PIs()[i])
	}
	nodes := edited.Nodes()
	for _, i := range r.Perm(len(nodes)) {
		shuffled.AddNode(nodes[i].Name, nodes[i].Fanins, nodes[i].Cover)
	}
	for _, po := range edited.POs() {
		shuffled.AddPO(po)
	}
	other := netlist.FromNetwork(shuffled)
	ong := other.Nodes[fb.Name]
	in := map[string]uint64{}
	for _, pi := range edited.PIs() {
		in[pi] = r.Uint64()
	}
	sim := edited.Simulate(in)

	builds := []struct {
		what string
		nl   *netlist.Netlist
		ng   *netlist.NodeGates
		e    *atpg.Engine
	}{{what: "fresh", nl: fresh.NL, ng: fng}, {what: "patched", nl: nl, ng: png}, {what: "shuffled", nl: other.NL, ng: ong}}
	for i := range builds {
		builds[i].e = atpg.NewEngine(builds[i].nl, atpg.Options{Learn: true})
	}
	// check runs the stuck-at fault on pin of the gate sel picks from f's
	// gates on every build, with extra assignments on top.
	check := func(site string, sel func(*netlist.NodeGates) int, pin int, stuck atpg.Value, extra int) {
		var ok [3]bool
		for i, b := range builds {
			b.e.Reset()
			ok[i] = atpg.MandatoryAssignments(b.e, b.nl, atpg.Fault{Wire: atpg.Wire{Gate: sel(b.ng), Pin: pin}, Stuck: stuck}, -1)
		}
		for i := 0; i < extra; i++ {
			name := names[r.Intn(len(names))]
			v := atpg.Value(sim[name] & 1)
			for j, b := range builds {
				ok[j] = ok[j] && b.e.Assign(b.nl.Signal[name], v)
			}
		}
		for i, b := range builds {
			ok[i] = ok[i] && b.e.Propagate()
		}
		tests++
		for i, b := range builds[1:] {
			if ok[i+1] != ok[0] {
				t.Fatalf("%s: %s, %d extra: consistent on the fresh build %v, on the %s build %v", label, site, extra, ok[0], b.what, ok[i+1])
			}
		}
		if !ok[0] {
			inconsistent++
			return
		}
		for _, name := range names {
			want := builds[0].e.Val(fresh.NL.Signal[name])
			for _, b := range builds[1:] {
				if got := b.e.Val(b.nl.Signal[name]); got != want {
					t.Fatalf("%s: %s, %d extra: %s is %d on the fresh build, %d on the %s build", label, site, extra, name, want, got, b.what)
				}
			}
		}
	}
	for _, extra := range []int{0, 16, 48, 96, 200} {
		for k, g := range fng.Cubes {
			for pin := range fresh.NL.Fanins(g) {
				check(fmt.Sprintf("cube %d pin %d stuck-at-1", k, pin), func(ng *netlist.NodeGates) int { return ng.Cubes[k] }, pin, atpg.One, extra)
			}
		}
		for pin := range fresh.NL.Fanins(fng.Out) {
			check(fmt.Sprintf("OR pin %d stuck-at-0", pin), func(ng *netlist.NodeGates) int { return ng.Out }, pin, atpg.Zero, extra)
		}
	}
	return tests, inconsistent
}

// learningEdit builds the network and the edit an input of
// FuzzLearningIgnoresNumbering describes: a random DAG below 64 nodes, else
// bench.Generate's random logic of up to about 1,100 gates, whose learning
// passes can exceed the 32-gate cap; f is the pick-th node with fanins in
// topological order (an early f numbers its gates early in a fresh build,
// and last when patched), and its new body is a random cover over its
// fanins plus, when flags&1 is set, an added node over the same fanins.
func learningEdit(t *testing.T, seed int64, size uint16, pick, flags uint8) (*network.Network, *network.Node, *network.Node) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var nw *network.Network
	if size < 64 {
		nw = randomDAG(r, 3+int(size)%5, 2+int(size))
	} else {
		var err error
		if nw, err = bench.Generate("rand", 100+int(size)%1000, 64, seed); err != nil {
			t.Fatal(err)
		}
	}
	var nodes []string
	for _, name := range nw.TopoOrder() {
		if len(nw.Node(name).Fanins) > 0 {
			nodes = append(nodes, name)
		}
	}
	if len(nodes) == 0 {
		t.Skip("no node with fanins")
	}
	f := nodes[int(pick)%len(nodes)]
	fanins := slices.Clone(nw.Node(f).Fanins)
	var added *network.Node
	if flags&1 != 0 {
		added = &network.Node{Name: nw.FreshName("add"), Fanins: slices.Clone(fanins), Cover: randomCover(r, len(fanins), 4)}
		fanins = append(fanins, added.Name)
	}
	return nw, &network.Node{Name: f, Fanins: fanins, Cover: randomCover(r, len(fanins), 4)}, added
}

// FuzzLearningIgnoresNumbering checks that which gates recursive learning
// examines, and so every verdict and implied value, does not depend on how
// a netlist numbers its gates: a node patched into a base build, a fresh
// build of the edited network and a build of it created in another order
// must agree (see checkPatchedLearning).
// Its seeds include random logic of 600 and 1,000 gates, where learning
// passes exceed the cap of 32 candidates, so a cap that took the lowest
// gate ids would examine different gates on differently numbered builds
// and fail.
func FuzzLearningIgnoresNumbering(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, pick := range []uint8{0, 2, 5} {
			f.Add(seed, uint16(500), pick, uint8(pick&1))
			f.Add(seed, uint16(900), pick, uint8(1-pick&1))
		}
	}
	f.Add(int64(7), uint16(20), uint8(5), uint8(1))
	f.Add(int64(11), uint16(40), uint8(9), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, pick, flags uint8) {
		nw, fb, added := learningEdit(t, seed, size, pick, flags)
		if tests, inconsistent := checkPatchedLearning(t, fmt.Sprintf("seed %d size %d f=%s", seed, size, fb.Name), nw, fb, added); inconsistent == tests {
			t.Logf("all %d fault tests inconsistent: no implied value compared", tests)
		}
	})
}
