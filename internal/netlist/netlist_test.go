package netlist

import (
	"slices"
	"testing"

	"repro/internal/cube"
	"repro/internal/network"
)

func buildNet() (*network.Network, *Build) {
	nw := network.New("t")
	nw.AddPI("a")
	nw.AddPI("b")
	nw.AddPI("c")
	nw.AddNode("g", []string{"a", "b"}, cube.ParseCover(2, "ab'"))
	nw.AddNode("f", []string{"g", "c"}, cube.ParseCover(2, "a + b"))
	nw.AddPO("f")
	return nw, FromNetwork(nw)
}

func TestFromNetworkStructure(t *testing.T) {
	_, b := buildNet()
	nl := b.NL
	g := b.Nodes["g"]
	if len(g.Cubes) != 1 {
		t.Fatalf("g cubes = %d", len(g.Cubes))
	}
	if nl.KindOf(g.Cubes[0]) != And || len(nl.Fanins(g.Cubes[0])) != 2 {
		t.Error("cube gate shape wrong")
	}
	if nl.KindOf(g.Out) != Or || len(nl.Fanins(g.Out)) != 1 {
		t.Error("node OR shape wrong")
	}
	f := b.Nodes["f"]
	if len(f.Cubes) != 2 {
		t.Fatalf("f cubes = %d", len(f.Cubes))
	}
	// Single-literal cubes still get their own AND gate (uniform shape).
	for _, cg := range f.Cubes {
		if nl.KindOf(cg) != And || len(nl.Fanins(cg)) != 1 {
			t.Error("single-literal cube not wrapped in 1-input AND")
		}
	}
}

func TestEvalMatchesNetwork(t *testing.T) {
	nw, b := buildNet()
	in := map[string]uint64{"a": 0xF0F0, "b": 0xFF00, "c": 0xAAAA}
	want := nw.Simulate(in)
	val := b.NL.Eval(in)
	for _, sig := range []string{"g", "f"} {
		if val[b.NL.Signal[sig]] != want[sig] {
			t.Errorf("%s: netlist %x, network %x", sig, val[b.NL.Signal[sig]], want[sig])
		}
	}
}

func TestInverterCache(t *testing.T) {
	_, b := buildNet()
	nl := b.NL
	a := nl.Signal["a"]
	n1 := nl.Invert(a)
	n2 := nl.Invert(a)
	if n1 != n2 {
		t.Error("inverter not cached")
	}
}

func TestPinEdit(t *testing.T) {
	nl := New()
	a := nl.AddInput("a")
	bb := nl.AddInput("b")
	g := nl.AddGate(And, a, bb)
	if len(nl.Fanouts(a)) != 1 {
		t.Fatal("fanout not tracked")
	}
	nl.RemovePin(g, 0)
	if len(nl.Fanins(g)) != 1 || nl.Fanins(g)[0] != bb {
		t.Errorf("fanins after removal: %v", nl.Fanins(g))
	}
	if len(nl.Fanouts(a)) != 0 {
		t.Error("fanout of a not removed")
	}
	pin := nl.AddPin(g, a)
	if pin != 1 || len(nl.Fanins(g)) != 2 {
		t.Error("AddPin failed")
	}
}

func TestEmptyGateSemantics(t *testing.T) {
	nl := New()
	and := nl.AddGate(And)
	or := nl.AddGate(Or)
	val := nl.Eval(nil)
	if val[and] != ^uint64(0) {
		t.Error("empty AND should be 1")
	}
	if val[or] != 0 {
		t.Error("empty OR should be 0")
	}
}

func TestTFOTFIDominators(t *testing.T) {
	nl := New()
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	g1 := nl.AddGate(And, a, b)
	g2 := nl.AddGate(Not, g1)
	g3 := nl.AddGate(Or, g2, a)
	tfo := nl.TFO(g1)
	for _, g := range []int{g1, g2, g3} {
		if !tfo[g] {
			t.Errorf("TFO missing %d", g)
		}
	}
	if tfo[a] || tfo[b] {
		t.Error("TFO contains inputs")
	}
	tfi := nl.TFI(g3)
	for _, g := range []int{a, b, g1, g2, g3} {
		if !tfi[g] {
			t.Errorf("TFI missing %d", g)
		}
	}
	doms := nl.Dominators(g1)
	if len(doms) != 2 || doms[0] != g2 || doms[1] != g3 {
		t.Errorf("dominators = %v, want [g2 g3]", doms)
	}
	// a has two fanouts: no dominators.
	if d := nl.Dominators(a); len(d) != 0 {
		t.Errorf("dominators(a) = %v", d)
	}
}

func TestConstantNodes(t *testing.T) {
	nw := network.New("c")
	nw.AddPI("a")
	nw.AddNode("one", []string{}, cube.CoverOf(0, cube.New(0)))
	nw.AddNode("zero", []string{}, cube.NewCover(0))
	nw.AddNode("f", []string{"a", "one", "zero"}, cube.ParseCover(3, "ab + c"))
	nw.AddPO("f")
	b := FromNetwork(nw)
	val := b.NL.Eval(map[string]uint64{"a": 0b10})
	if got := val[b.NL.Signal["f"]] & 0b11; got != 0b10 {
		t.Errorf("f = %b, want 10", got)
	}
}

func TestEvalWithFault(t *testing.T) {
	nl := New()
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	g := nl.AddGate(And, a, b)
	in := map[string]uint64{"a": 0b1100, "b": 0b1010}
	good := nl.Eval(in)[g]
	saOne := nl.EvalWithFault(in, g, 1, true)[g] // b-pin stuck at 1 → g = a
	if saOne != in["a"] {
		t.Errorf("s-a-1 eval = %04b, want %04b", saOne&0xF, in["a"]&0xF)
	}
	saZero := nl.EvalWithFault(in, g, 0, false)[g] // a-pin stuck at 0 → g = 0
	if saZero != 0 {
		t.Errorf("s-a-0 eval = %04b, want 0", saZero&0xF)
	}
	if good != in["a"]&in["b"] {
		t.Errorf("good eval wrong")
	}
}

func TestMarkPOStopsDominators(t *testing.T) {
	nl := New()
	a := nl.AddInput("a")
	g1 := nl.AddGate(Not, a)
	g2 := nl.AddGate(Not, g1)
	g3 := nl.AddGate(Not, g2)
	_ = g3
	if d := nl.Dominators(g1); len(d) != 2 {
		t.Fatalf("dominators = %v", d)
	}
	nl.MarkPO(g2)
	if d := nl.Dominators(g1); len(d) != 1 || d[0] != g2 {
		t.Errorf("PO should stop the walk: %v", d)
	}
	if !nl.IsPO(g2) || nl.IsPO(g1) {
		t.Error("IsPO wrong")
	}
}

func TestNameOfAndKinds(t *testing.T) {
	nl := New()
	a := nl.AddInput("sig")
	if nl.NameOf(a) != "sig" || nl.KindOf(a) != Input {
		t.Error("input metadata wrong")
	}
	for _, k := range []Kind{Input, And, Or, Not} {
		if k.String() == "" {
			t.Error("kind string empty")
		}
	}
}

// TestEditLog pins the edit log a simulation memo catches up on: AddPin,
// RemovePin and the rollback of either log the gate whose fanin list
// changed, a rolled-back AddGate logs the gate it removed, a created gate
// is not logged, and Reset and an overgrown log start a new generation
// with an empty log.
func TestEditLog(t *testing.T) {
	nl := New()
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	g := nl.AddGate(And, a, b)
	o := nl.AddGate(Or, g)
	gen := nl.Generation()
	expect := func(what string, want ...int) {
		t.Helper()
		if nl.Generation() != gen {
			t.Fatalf("%s: generation %d, want %d", what, nl.Generation(), gen)
		}
		if got := nl.Edited(); !slices.Equal(got, want) {
			t.Fatalf("%s: log %v, want %v", what, got, want)
		}
	}
	expect("build")
	nl.RemovePin(g, 1)
	expect("RemovePin", g)
	nl.BeginTx()
	c := nl.AddGate(And, a)
	expect("AddGate in a transaction", g)
	nl.AddPin(o, c)
	expect("AddPin", g, o)
	nl.RollbackTx()
	expect("RollbackTx", g, o, o, c)
	nl.EndTx()
	nl.Reset()
	if nl.Generation() == gen || len(nl.Edited()) != 0 {
		t.Fatalf("Reset kept generation %d or log %v", nl.Generation(), nl.Edited())
	}
	gen = nl.Generation()
	x := nl.AddInput("x")
	y := nl.AddGate(Not, x)
	nl.RemovePin(y, 0)
	nl.AddPin(y, x)
	expect("two edits on two gates", y, y)
	nl.RemovePin(y, 0)
	if nl.Generation() == gen || len(nl.Edited()) != 0 {
		t.Fatalf("a log outgrowing %d gates kept generation %d or log %v", nl.NumGates(), nl.Generation(), nl.Edited())
	}
}
