package network

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cube"
)

// freshConeHashes computes reference hashes from scratch on a clone (clones
// carry no tables, so EnableCones there is an independent full computation).
func freshConeHashes(nw *Network) map[string]ConeHash {
	c := nw.Clone()
	tab := c.EnableCones()
	out := make(map[string]ConeHash)
	for _, n := range c.Nodes() {
		h, ok := tab.Hash(n.Name)
		if !ok {
			panic("freshConeHashes: no hash for " + n.Name)
		}
		out[n.Name] = h
	}
	return out
}

func TestConeHashIncrementalMatchesFresh(t *testing.T) {
	nw := buildSmall()
	tab := nw.EnableCones()

	check := func(step string) {
		t.Helper()
		want := freshConeHashes(nw)
		for name, w := range want {
			got, ok := tab.Hash(name)
			if !ok {
				t.Fatalf("%s: no hash for %s", step, name)
			}
			if got != w {
				t.Errorf("%s: %s: incremental %x, fresh %x", step, name, got, w)
			}
		}
		if err := nw.Check(); err != nil {
			t.Fatalf("%s: Check: %v", step, err)
		}
	}
	check("initial")

	if err := nw.ReplaceNodeFunction("g", []string{"a", "b"}, cube.ParseCover(2, "a + b")); err != nil {
		t.Fatal(err)
	}
	tab.Refresh()
	check("after ReplaceNodeFunction")

	nw.AddNode("h", []string{"g", "c"}, cube.ParseCover(2, "ab'"))
	nw.AddPO("h")
	tab.Refresh()
	check("after AddNode")

	if !nw.Compose("h", "g") {
		t.Fatal("Compose failed")
	}
	tab.Refresh()
	check("after Compose")

	nw.Sweep()
	tab.Refresh()
	check("after Sweep")
}

func TestConeHashStaleUntilRefresh(t *testing.T) {
	nw := buildSmall()
	tab := nw.EnableCones()
	if err := nw.ReplaceNodeFunction("g", []string{"a", "b"}, cube.ParseCover(2, "a + b")); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.Hash("g"); ok {
		t.Error("Hash returned a value while an edit was pending")
	}
	// Any edit retires the whole table: f's stored hash embeds g's cone, so
	// it must be withheld too.
	if _, ok := tab.Hash("f"); ok {
		t.Error("Hash returned a fanout hash while its cone was stale")
	}
	if _, ok := tab.NetHash(); ok {
		t.Error("NetHash returned a value while an edit was pending")
	}
	tab.Refresh()
	if _, ok := tab.Hash("f"); !ok {
		t.Error("no hash for f after Refresh")
	}
}

func TestConeHashUntouchedConesSurviveCommit(t *testing.T) {
	// Two disjoint cones: editing one must keep the other's hash bit-equal.
	nw := New("twocones")
	for _, pi := range []string{"a", "b", "c", "d"} {
		nw.AddPI(pi)
	}
	nw.AddNode("x", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("y", []string{"c", "d"}, cube.ParseCover(2, "a + b"))
	nw.AddPO("x")
	nw.AddPO("y")
	tab := nw.EnableCones()
	before, ok := tab.Hash("y")
	if !ok {
		t.Fatal("no hash for y")
	}
	netBefore, _ := tab.NetHash()
	if err := nw.ReplaceNodeFunction("x", []string{"a", "b"}, cube.ParseCover(2, "a'b'")); err != nil {
		t.Fatal(err)
	}
	tab.Refresh()
	after, ok := tab.Hash("y")
	if !ok {
		t.Fatal("no hash for y after Refresh")
	}
	if before != after {
		t.Error("editing x changed y's cone hash; disjoint cones must be stable")
	}
	netAfter, _ := tab.NetHash()
	if netBefore == netAfter {
		t.Error("NetHash unchanged across a committed rewrite")
	}
}

func TestConeHashDistinguishesStructure(t *testing.T) {
	// Same function, different fanin order / cover bytes ⇒ different hash:
	// the hash is structural, not semantic.
	mk := func(fanins []string, cov string) ConeHash {
		nw := New("t")
		nw.AddPI("a")
		nw.AddPI("b")
		nw.AddNode("f", fanins, cube.ParseCover(2, cov))
		nw.AddPO("f")
		h, ok := nw.EnableCones().Hash("f")
		if !ok {
			t.Fatal("no hash")
		}
		return h
	}
	base := mk([]string{"a", "b"}, "ab")
	if mk([]string{"b", "a"}, "ab") == base {
		t.Error("fanin order not hashed")
	}
	if mk([]string{"a", "b"}, "a + b") == base {
		t.Error("cover content not hashed")
	}
}

// randomConeDAG builds a deterministic random DAG from a seed: nPIs inputs,
// nNodes nodes each reading 1-3 earlier signals.
func randomConeDAG(r *rand.Rand, nPIs, nNodes int) *Network {
	nw := New("rnd")
	sigs := make([]string, 0, nPIs+nNodes)
	for i := 0; i < nPIs; i++ {
		pi := fmt.Sprintf("i%d", i)
		nw.AddPI(pi)
		sigs = append(sigs, pi)
	}
	for i := 0; i < nNodes; i++ {
		name := fmt.Sprintf("n%d", i)
		k := 1 + r.Intn(3)
		if k > len(sigs) {
			k = len(sigs)
		}
		perm := r.Perm(len(sigs))[:k]
		fanins := make([]string, k)
		for j, p := range perm {
			fanins[j] = sigs[p]
		}
		cov := cube.NewCover(k)
		nc := 1 + r.Intn(3)
		for c := 0; c < nc; c++ {
			cb := cube.New(k)
			for v := 0; v < k; v++ {
				switch r.Intn(3) {
				case 0:
					cb.Set(v, cube.Pos)
				case 1:
					cb.Set(v, cube.Neg)
				}
			}
			if cb.IsEmpty() {
				continue
			}
			cov.Add(cb)
		}
		if cov.NumCubes() == 0 {
			cb := cube.New(k)
			cb.Set(0, cube.Pos)
			cov.Add(cb)
		}
		nw.AddNode(name, fanins, cov)
		sigs = append(sigs, name)
	}
	nw.AddPO(sigs[len(sigs)-1])
	return nw
}

// FuzzConeHashOrderInvariance locks the table's identity property:
// per-signal cone hashes are a function of the cone's structure alone, not
// of node creation order. It rebuilds a
// random DAG with the node insertion order permuted (AddNode does not
// require fanins to exist yet, so any permutation is constructible) and
// demands bit-equal hashes for every signal — while the order-sensitive
// NetHash must be allowed to differ.
func FuzzConeHashOrderInvariance(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(42), int64(7))
	f.Add(int64(-3), int64(99))
	f.Fuzz(func(t *testing.T, seed, permSeed int64) {
		r := rand.New(rand.NewSource(seed))
		nw := randomConeDAG(r, 3+r.Intn(3), 4+r.Intn(6))
		tab := nw.EnableCones()

		// Rebuild the same network with nodes added in a permuted order.
		nodes := nw.Nodes()
		pr := rand.New(rand.NewSource(permSeed))
		perm := pr.Perm(len(nodes))
		nw2 := New(nw.Name)
		for _, pi := range nw.PIs() {
			nw2.AddPI(pi)
		}
		for _, i := range perm {
			n := nodes[i]
			nw2.AddNode(n.Name, n.Fanins, n.Cover.Clone())
		}
		for _, po := range nw.POs() {
			nw2.AddPO(po)
		}
		tab2 := nw2.EnableCones()

		for _, n := range nodes {
			h1, ok1 := tab.Hash(n.Name)
			h2, ok2 := tab2.Hash(n.Name)
			if !ok1 || !ok2 {
				t.Fatalf("missing hash for %s (ok1=%v ok2=%v)", n.Name, ok1, ok2)
			}
			if h1 != h2 {
				t.Errorf("%s: creation order changed the cone hash: %x vs %x", n.Name, h1, h2)
			}
		}
		if err := nw2.Check(); err != nil {
			t.Fatalf("permuted rebuild fails Check: %v", err)
		}
	})
}
