package verify

import (
	"fmt"
	"testing"

	"repro/internal/cube"
	"repro/internal/network"
)

func pair() (*network.Network, *network.Network) {
	a := network.New("a")
	a.AddPI("x")
	a.AddPI("y")
	a.AddNode("f", []string{"x", "y"}, cube.ParseCover(2, "ab + a'b'")) // XNOR
	a.AddPO("f")

	b := network.New("b")
	b.AddPI("x")
	b.AddPI("y")
	b.AddNode("t", []string{"x", "y"}, cube.ParseCover(2, "ab' + a'b")) // XOR
	b.AddNode("f", []string{"t"}, cube.ParseCover(1, "a'"))             // NOT
	b.AddPO("f")
	return a, b
}

func TestEquivalentStructurallyDifferent(t *testing.T) {
	a, b := pair()
	r, err := Check(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equivalent || !r.Exhaustive {
		t.Errorf("result = %+v", r)
	}
	if r.PatternsTried != 4 {
		t.Errorf("patterns = %d, want 4", r.PatternsTried)
	}
}

func TestInequivalentFindsWitness(t *testing.T) {
	a, b := pair()
	// Break b: make f a buffer of t (now computes XOR instead of XNOR).
	b.Node("f").Cover = cube.ParseCover(1, "a")
	r, err := Check(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Equivalent {
		t.Fatal("inequivalent networks reported equivalent")
	}
	if r.FailingPO != "f" || r.FailingPattern == nil {
		t.Errorf("witness missing: %+v", r)
	}
	// Witness must actually differentiate.
	in := map[string]uint64{}
	for pi, v := range r.FailingPattern {
		if v {
			in[pi] = 1
		} else {
			in[pi] = 0
		}
	}
	va, vb := a.Simulate(in), b.Simulate(in)
	if va["f"]&1 == vb["f"]&1 {
		t.Error("witness does not differentiate")
	}
}

func TestInterfaceMismatch(t *testing.T) {
	a, _ := pair()
	c := network.New("c")
	c.AddPI("x")
	c.AddNode("f", []string{"x"}, cube.ParseCover(1, "a"))
	c.AddPO("f")
	if _, err := Check(a, c, 0); err == nil {
		t.Error("PI mismatch not reported")
	}
}

func TestManyInputsExhaustive(t *testing.T) {
	// 7 inputs exercises the >64-minterm windowed path.
	mk := func(neg bool) *network.Network {
		nw := network.New("wide")
		fan := []string{}
		for i := 0; i < 7; i++ {
			pi := string(rune('a' + i))
			nw.AddPI(pi)
			fan = append(fan, pi)
		}
		// parity-ish: f = ab + cd + ef + g
		cov := cube.ParseCover(7, "ab + cd + ef + g")
		if neg {
			cov = cov.Complement().Complement() // same function, different cover
		}
		nw.AddNode("out", fan, cov)
		nw.AddPO("out")
		return nw
	}
	r, err := Check(mk(false), mk(true), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equivalent || r.PatternsTried != 128 {
		t.Errorf("result = %+v", r)
	}
}

// TestExhaustiveAllocationsIndependentOfWords bounds an exhaustive check's
// allocations by a constant: each network is simulated on one reused
// SigID-indexed slice, so 4 words and 4,096 words (8 and 18 inputs)
// allocate the same set-up and nothing per word.
func TestExhaustiveAllocationsIndependentOfWords(t *testing.T) {
	mk := func(n int, name string) *network.Network {
		nw := network.New(name)
		var prev string
		for i := 0; i < n; i++ {
			pi := fmt.Sprintf("x%02d", i)
			nw.AddPI(pi)
			if i == 0 {
				prev = pi
				continue
			}
			// A chain of 2-input XORs, so every word exercises every node.
			g := fmt.Sprintf("g%02d", i)
			nw.AddNode(g, []string{prev, pi}, cube.ParseCover(2, "ab' + a'b"))
			prev = g
		}
		nw.AddPO(prev)
		return nw
	}
	const bound = 64
	for _, n := range []int{8, 18} {
		a, b := mk(n, "a"), mk(n, "b")
		allocs := testing.AllocsPerRun(3, func() {
			if r, err := Check(a, b, 0); err != nil || !r.Equivalent || !r.Exhaustive {
				t.Fatalf("%d inputs: %+v, %v", n, r, err)
			}
		})
		if allocs > bound {
			t.Errorf("%d inputs (%d words): %.0f allocations per check, want at most %d", n, 1<<(n-6), allocs, bound)
		}
	}
}

func TestPOdrivenByPI(t *testing.T) {
	mk := func() *network.Network {
		nw := network.New("wire")
		nw.AddPI("x")
		nw.AddPO("x")
		return nw
	}
	if !Equivalent(mk(), mk()) {
		t.Error("identical wire networks differ")
	}
}

func TestSATPathWideEquivalent(t *testing.T) {
	// 30 inputs: exhaustive is impossible, SAT must prove equivalence of
	// two different-but-equal structures.
	mk := func(variant bool) *network.Network {
		nw := network.New("wide30")
		var fan []string
		for i := 0; i < 30; i++ {
			pi := "x" + string(rune('a'+i/10)) + string(rune('0'+i%10))
			nw.AddPI(pi)
			fan = append(fan, pi)
		}
		// f = OR of 10 3-input ANDs.
		var cubes []string
		_ = cubes
		cov := cube.NewCover(30)
		for k := 0; k < 10; k++ {
			c := cube.New(30)
			c.Set(3*k, cube.Pos)
			c.Set(3*k+1, cube.Pos)
			c.Set(3*k+2, cube.Pos)
			cov.Add(c)
		}
		if variant {
			// Same function, doubled cubes (SCC'd away differently).
			cov2 := cov.Clone()
			cov2.Cubes = append(cov2.Cubes, cov.Cubes...)
			cov = cov2
		}
		nw.AddNode("f", fan, cov)
		nw.AddPO("f")
		return nw
	}
	r, err := Check(mk(false), mk(true), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equivalent || !r.Exhaustive {
		t.Fatalf("SAT path should prove equivalence completely: %+v", r)
	}
}

func TestSATPathWideInequivalent(t *testing.T) {
	mk := func(extra bool) *network.Network {
		nw := network.New("wide30b")
		var fan []string
		for i := 0; i < 30; i++ {
			pi := "x" + string(rune('a'+i/10)) + string(rune('0'+i%10))
			nw.AddPI(pi)
			fan = append(fan, pi)
		}
		cov := cube.NewCover(30)
		c := cube.New(30)
		for i := 0; i < 30; i++ {
			c.Set(i, cube.Pos)
		}
		cov.Add(c) // f = AND of all 30 inputs
		if extra {
			// g differs only on the single all-ones-but-one minterm.
			c2 := cube.New(30)
			for i := 1; i < 30; i++ {
				c2.Set(i, cube.Pos)
			}
			c2.Set(0, cube.Neg)
			cov.Add(c2)
		}
		nw.AddNode("f", fan, cov)
		nw.AddPO("f")
		return nw
	}
	// Random simulation essentially never hits the differing minterm; the
	// SAT path must find it.
	r, err := Check(mk(false), mk(true), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Equivalent {
		t.Fatal("networks differ; SAT should find the needle minterm")
	}
	if r.FailingPattern == nil || r.FailingPO != "f" {
		t.Errorf("counterexample missing: %+v", r)
	}
	// The counterexample must actually differentiate.
	in := map[string]uint64{}
	for pi, v := range r.FailingPattern {
		if v {
			in[pi] = 1
		} else {
			in[pi] = 0
		}
	}
	va, vb := mk(false).Simulate(in), mk(true).Simulate(in)
	if va["f"]&1 == vb["f"]&1 {
		t.Error("SAT counterexample does not differentiate")
	}
}

func TestSATOnOptimizedBenchmarkShape(t *testing.T) {
	// A 24-input circuit (past the exhaustive limit) against a structurally
	// different equivalent: dec4-like structure replicated over more inputs.
	mk := func(swap bool) *network.Network {
		nw := network.New("w24")
		var fan []string
		for i := 0; i < 24; i++ {
			pi := "i" + string(rune('a'+i/6)) + string(rune('0'+i%6))
			nw.AddPI(pi)
			fan = append(fan, pi)
		}
		cov := cube.NewCover(24)
		for k := 0; k < 8; k++ {
			c := cube.New(24)
			c.Set(3*k, cube.Pos)
			c.Set(3*k+1, cube.Neg)
			c.Set(3*k+2, cube.Pos)
			cov.Add(c)
		}
		if swap {
			// reorder cubes — same function
			cs := append([]cube.Cube(nil), cov.Cubes...)
			for i, j := 0, len(cs)-1; i < j; i, j = i+1, j-1 {
				cs[i], cs[j] = cs[j], cs[i]
			}
			cov.Cubes = cs
		}
		nw.AddNode("f", fan, cov)
		nw.AddPO("f")
		return nw
	}
	r, err := Check(mk(false), mk(true), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equivalent || !r.Exhaustive {
		t.Fatalf("want complete SAT-proved equivalence: %+v", r)
	}
}

func TestShrinkCounterexample(t *testing.T) {
	// a computes x∧y, b computes x: they disagree whenever x=1, y=0 —
	// regardless of the other inputs, which shrinking should zero out.
	mk := func(and bool) *network.Network {
		nw := network.New("s")
		for _, pi := range []string{"x", "y", "z", "w"} {
			nw.AddPI(pi)
		}
		if and {
			nw.AddNode("f", []string{"x", "y"}, cube.ParseCover(2, "ab"))
		} else {
			nw.AddNode("f", []string{"x"}, cube.ParseCover(1, "a"))
		}
		nw.AddPO("f")
		return nw
	}
	a, b := mk(true), mk(false)
	witness := map[string]bool{"x": true, "y": false, "z": true, "w": true}
	shrunk := ShrinkCounterexample(a, b, witness)
	if !shrunk["x"] {
		t.Error("x must stay (needed for the disagreement)")
	}
	if shrunk["z"] || shrunk["w"] {
		t.Errorf("irrelevant inputs not shrunk: %v", shrunk)
	}
	// The shrunk pattern must still differentiate.
	in := map[string]uint64{}
	for pi, v := range shrunk {
		if v {
			in[pi] = 1
		} else {
			in[pi] = 0
		}
	}
	if a.Simulate(in)["f"]&1 == b.Simulate(in)["f"]&1 {
		t.Error("shrunk pattern no longer differentiates")
	}
}

func TestShrinkNonCounterexampleUnchanged(t *testing.T) {
	a, b := pair()
	p := map[string]bool{"x": true, "y": true}
	out := ShrinkCounterexample(a, b, p)
	if out["x"] != true || out["y"] != true {
		t.Error("equivalent networks: pattern should be returned unchanged")
	}
}
