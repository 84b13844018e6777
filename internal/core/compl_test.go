package core

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/verify"
)

func TestBasicDivideComplFindsComplementPhase(t *testing.T) {
	// f = a'b' + c with d = a + b: f = d'·1 + c — the complement phase.
	nw := network.New("compl")
	for _, pi := range []string{"a", "b", "c"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("f", []string{"a", "b", "c"}, cube.ParseCover(3, "a'b' + c"))
	nw.AddPO("f")
	nw.AddPO("d")
	res, ok := BasicDivideCompl(nw, "f", "d", Basic)
	if !ok {
		t.Fatal("complement-phase division failed")
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
	if fn.FaninIndex("d") < 0 {
		t.Errorf("divisor unused: %s", fn.Render())
	}
	// a'b' should be replaced by the single d' literal: ≤ 2 SOP literals.
	if fn.Cover.NumLits() > 2 {
		t.Errorf("f = %s (%d lits), want d' + c", fn.Render(), fn.Cover.NumLits())
	}
}

func TestBasicDivideComplRejectsNoContainment(t *testing.T) {
	nw := network.New("nc2")
	for _, pi := range []string{"a", "b", "c"} {
		nw.AddPI(pi)
	}
	// d̄ = a'b'; f's cubes contain neither a' nor b' nor a'b'.
	nw.AddNode("d", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("f", []string{"a", "b", "c"}, cube.ParseCover(3, "ab + c"))
	nw.AddPO("f")
	nw.AddPO("d")
	if _, ok := BasicDivideCompl(nw, "f", "d", Basic); ok {
		t.Error("division should fail without complement containment")
	}
}

func TestPropBasicDivideComplSound(t *testing.T) {
	r := rand.New(rand.NewSource(171))
	for trial := 0; trial < 40; trial++ {
		nw := randomDAG(r, 4, 5)
		names := nw.SortedNodeNames()
		if len(names) < 2 {
			continue
		}
		f := names[r.Intn(len(names))]
		d := names[r.Intn(len(names))]
		res, ok := BasicDivideCompl(nw, f, d, Basic)
		if !ok {
			continue
		}
		after := nw.Clone()
		if err := after.ReplaceNodeFunction(f, res.Fanins, res.Cover); err != nil {
			continue
		}
		after.NormalizeNode(f)
		if !verify.Equivalent(nw, after) {
			t.Fatalf("trial %d: complement division of %s by %s broke equivalence\n%s",
				trial, f, d, nw.String())
		}
	}
}
