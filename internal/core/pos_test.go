package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebraic"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/verify"
)

// posNetwork: f = (a+b)(c+d) in SOP, divisor d0 = a + b. POS division should
// find f = d0·(c+d) — impossible for SOP-form substitution since no cube of
// d0 is contained in a cube of f.
func posNetwork() *network.Network {
	nw := network.New("pos")
	for _, pi := range []string{"a", "b", "c", "d"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d0", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("f", []string{"a", "b", "c", "d"}, cube.ParseCover(4, "ac + ad + bc + bd"))
	nw.AddPO("f")
	nw.AddPO("d0")
	return nw
}

func TestPosDivideFactorsProduct(t *testing.T) {
	nw := posNetwork()
	res, ok := PosDivide(nw, "f", "d0", Extended)
	if !ok {
		t.Fatal("POS division failed")
	}
	if !res.POS {
		t.Error("result not marked POS")
	}
	after := nw.Clone()
	if err := after.ReplaceNodeFunction("f", res.Fanins, res.Cover); err != nil {
		t.Fatal(err)
	}
	after.NormalizeNode("f")
	if !verify.Equivalent(nw, after) {
		t.Fatal("POS division broke equivalence")
	}
	fn := after.Node("f")
	// f = y·(c + d): 3 factored literals, down from 4.
	if got := algebraic.FactorLits(fn.Cover); got > 3 {
		t.Errorf("fac lits = %d (%v over %v), want ≤ 3", got, fn.Cover, fn.Fanins)
	}
	if fn.FaninIndex("d0") < 0 {
		t.Error("divisor not used")
	}
	if fn.FaninIndex("a") >= 0 || fn.FaninIndex("b") >= 0 {
		t.Errorf("a/b literals should be gone: %v over %v", fn.Cover, fn.Fanins)
	}
}

func TestPosDivideWithRemainder(t *testing.T) {
	// f = (a+b+e)(c+d): POS division by d0 = a+b leaves sum term (…+e) in
	// place: f = (d0 + e)(c + d).
	nw := network.New("posr")
	for _, pi := range []string{"a", "b", "c", "d", "e"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d0", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	f := cube.ParseCover(5, "a + b + e").And(cube.ParseCover(5, "c + d"))
	nw.AddNode("f", []string{"a", "b", "c", "d", "e"}, f)
	nw.AddPO("f")
	nw.AddPO("d0")
	res, ok := PosDivide(nw, "f", "d0", Extended)
	if !ok {
		t.Fatal("POS division failed")
	}
	after := nw.Clone()
	if err := after.ReplaceNodeFunction("f", res.Fanins, res.Cover); err != nil {
		t.Fatal(err)
	}
	after.NormalizeNode("f")
	if !verify.Equivalent(nw, after) {
		t.Fatal("equivalence broken")
	}
	fn := after.Node("f")
	before := algebraic.FactorLits(f)
	if got := algebraic.FactorLits(fn.Cover); got >= before {
		t.Errorf("fac lits = %d, want < %d (%v over %v)", got, before, fn.Cover, fn.Fanins)
	}
}

func TestPosDivideRejectsUnrelated(t *testing.T) {
	nw := network.New("posu")
	for _, pi := range []string{"a", "b", "c", "d"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d0", []string{"c", "d"}, cube.ParseCover(2, "ab"))
	nw.AddNode("f", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddPO("f")
	nw.AddPO("d0")
	if res, ok := PosDivide(nw, "f", "d0", Extended); ok {
		// A structural division may exist; it must at least be sound.
		after := nw.Clone()
		if err := after.ReplaceNodeFunction("f", res.Fanins, res.Cover); err == nil {
			after.NormalizeNode("f")
			if !verify.Equivalent(nw, after) {
				t.Error("unsound POS division")
			}
		}
	}
}

func TestPropPosDivisionSound(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for trial := 0; trial < 40; trial++ {
		nw := randomDAG(r, 4, 5)
		names := nw.SortedNodeNames()
		if len(names) < 2 {
			continue
		}
		f := names[r.Intn(len(names))]
		d := names[r.Intn(len(names))]
		res, ok := PosDivide(nw, f, d, Extended)
		if !ok {
			continue
		}
		after := nw.Clone()
		if err := after.ReplaceNodeFunction(f, res.Fanins, res.Cover); err != nil {
			continue
		}
		after.NormalizeNode(f)
		if !verify.Equivalent(nw, after) {
			t.Fatalf("trial %d: POS division of %s by %s broke equivalence\nbefore: %safter: %s",
				trial, f, d, nw.String(), after.String())
		}
	}
}
