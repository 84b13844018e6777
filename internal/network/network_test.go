package network

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cube"
)

// mustPanic asserts fn panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatalf("no panic (want one containing %q)", want)
		}
		if msg, ok := rec.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v does not mention %q", rec, want)
		}
	}()
	fn()
}

func TestAddPIDuplicatePanics(t *testing.T) {
	nw := New("dup")
	nw.AddPI("a")
	mustPanic(t, "duplicate signal", func() { nw.AddPI("a") })
}

func TestAddPODuplicatePanics(t *testing.T) {
	// A doubled PO entry would double-count the output in Levels, Eliminate's
	// protection set, and the BLIF .outputs line; reject it at the source
	// exactly like AddPI rejects a doubled input.
	nw := buildSmall()
	mustPanic(t, "duplicate primary output", func() { nw.AddPO("f") })
}

// TestPOMarkSurvivesCloneAndCopyFrom: the SigID-indexed PO mark behind
// AddPO's O(1) duplicate check travels with Clone and CopyFrom, and is
// private to each copy.
func TestPOMarkSurvivesCloneAndCopyFrom(t *testing.T) {
	nw := buildSmall()
	c := nw.Clone()
	mustPanic(t, "duplicate primary output", func() { c.AddPO("f") })
	c.AddPO("g")
	if nw.IsPO("g") || !c.IsPO("g") {
		t.Fatalf("PO mark shared between clone and original: orig %v clone %v", nw.IsPO("g"), c.IsPO("g"))
	}
	dst := New("dst")
	dst.CopyFrom(c)
	mustPanic(t, "duplicate primary output", func() { dst.AddPO("g") })
	if err := dst.Check(); err != nil {
		t.Fatal(err)
	}
}

// buildSmall returns: PIs a,b,c; g = ab; f = g + c; PO f.
func buildSmall() *Network {
	nw := New("small")
	nw.AddPI("a")
	nw.AddPI("b")
	nw.AddPI("c")
	nw.AddNode("g", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("f", []string{"g", "c"}, cube.ParseCover(2, "a + b")) // locals: a=g, b=c
	nw.AddPO("f")
	return nw
}

func TestTopoOrder(t *testing.T) {
	nw := buildSmall()
	order := nw.TopoOrder()
	pos := map[string]int{}
	for i, s := range order {
		pos[s] = i
	}
	if pos["g"] > pos["f"] {
		t.Errorf("topo order wrong: %v", order)
	}
	if err := nw.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestDependsOn(t *testing.T) {
	nw := buildSmall()
	if !nw.DependsOn("f", "g") || !nw.DependsOn("f", "a") {
		t.Error("f should depend on g and a")
	}
	if nw.DependsOn("g", "f") || nw.DependsOn("g", "c") {
		t.Error("g should not depend on f or c")
	}
}

func TestSimulate(t *testing.T) {
	nw := buildSmall()
	// f = ab + c. Pattern bits: use 8 patterns over a,b,c.
	in := map[string]uint64{
		"a": 0b10101010,
		"b": 0b11001100,
		"c": 0b11110000,
	}
	v := nw.Simulate(in)
	want := in["a"]&in["b"] | in["c"]
	if v["f"]&0xFF != want&0xFF {
		t.Errorf("sim f = %08b, want %08b", v["f"]&0xFF, want&0xFF)
	}
}

func TestCompose(t *testing.T) {
	nw := buildSmall()
	if !nw.Compose("f", "g") {
		t.Fatal("compose failed")
	}
	f := nw.Node("f")
	// f should now be ab + c over fanins {a, b, c} (order may vary).
	got := map[string]bool{}
	for _, fn := range f.Fanins {
		got[fn] = true
	}
	if !got["a"] || !got["b"] || !got["c"] {
		t.Errorf("fanins = %v", f.Fanins)
	}
	// Evaluate to confirm function ab + c.
	for m := 0; m < 8; m++ {
		val := map[string]bool{"a": m&1 == 1, "b": m&2 == 2, "c": m&4 == 4}
		assign := make([]bool, len(f.Fanins))
		for i, fn := range f.Fanins {
			assign[i] = val[fn]
		}
		want := val["a"] && val["b"] || val["c"]
		if f.Cover.Eval(assign) != want {
			t.Errorf("composed f wrong at %v", val)
		}
	}
}

func TestComposeNegativeLiteral(t *testing.T) {
	nw := New("neg")
	nw.AddPI("a")
	nw.AddPI("b")
	nw.AddNode("g", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("f", []string{"g"}, cube.ParseCover(1, "a'")) // f = g'
	nw.AddPO("f")
	nw.Compose("f", "g")
	f := nw.Node("f")
	for m := 0; m < 4; m++ {
		val := map[string]bool{"a": m&1 == 1, "b": m&2 == 2}
		assign := make([]bool, len(f.Fanins))
		for i, fn := range f.Fanins {
			assign[i] = val[fn]
		}
		want := !(val["a"] && val["b"])
		if f.Cover.Eval(assign) != want {
			t.Errorf("f = (ab)' wrong at %v", val)
		}
	}
}

func TestSweepDeadNode(t *testing.T) {
	nw := buildSmall()
	nw.AddNode("dead", []string{"a"}, cube.ParseCover(1, "a"))
	if removed := nw.Sweep(); removed < 1 {
		t.Errorf("Sweep removed %d, want ≥1", removed)
	}
	if nw.Node("dead") != nil {
		t.Error("dead node survived sweep")
	}
	if nw.Node("f") == nil || nw.Node("g") == nil {
		t.Error("live nodes removed")
	}
}

func TestSweepBufferChain(t *testing.T) {
	nw := New("buf")
	nw.AddPI("a")
	nw.AddPI("b")
	nw.AddNode("t1", []string{"a"}, cube.ParseCover(1, "a"))
	nw.AddNode("t2", []string{"t1"}, cube.ParseCover(1, "a"))
	nw.AddNode("f", []string{"t2", "b"}, cube.ParseCover(2, "ab"))
	nw.AddPO("f")
	nw.Sweep()
	f := nw.Node("f")
	if f.FaninIndex("a") < 0 {
		t.Errorf("buffers not propagated; fanins=%v", f.Fanins)
	}
	if nw.Node("t1") != nil || nw.Node("t2") != nil {
		t.Error("buffer nodes survived")
	}
}

func TestEliminate(t *testing.T) {
	nw := buildSmall()
	// g has a single fanout; eliminate 0 should collapse it.
	n := nw.Eliminate(0)
	if n != 1 {
		t.Errorf("eliminated %d, want 1", n)
	}
	if nw.Node("g") != nil {
		t.Error("g survived eliminate 0")
	}
}

func TestValue(t *testing.T) {
	nw := buildSmall()
	// g: 2 lits, used once → value = (1-1)*2 - 1 = -1
	if v := nw.Value("g", false); v != -1 {
		t.Errorf("value(g) = %d, want -1", v)
	}
	// PO node is protected.
	if v := nw.Value("f", false); v < 1<<29 {
		t.Errorf("value(f) = %d, want protected", v)
	}
}

func TestNormalizeNode(t *testing.T) {
	nw := New("norm")
	nw.AddPI("a")
	nw.AddPI("b")
	nw.AddPI("c")
	nw.AddNode("f", []string{"a", "b", "c"}, cube.ParseCover(3, "ab"))
	nw.AddPO("f")
	nw.NormalizeNode("f")
	f := nw.Node("f")
	if len(f.Fanins) != 2 {
		t.Errorf("fanins = %v, want [a b]", f.Fanins)
	}
	if f.Cover.NumVars() != 2 {
		t.Errorf("cover space = %d", f.Cover.NumVars())
	}
}

func TestGlobalCover(t *testing.T) {
	nw := buildSmall()
	g := nw.GlobalCover("f", []string{"a", "b", "c"})
	want := cube.ParseCover(3, "ab + c")
	if !g.Equivalent(want) {
		t.Errorf("global cover = %v, want ab + c", g)
	}
}

func TestRemapCover(t *testing.T) {
	f := cube.ParseCover(2, "ab")
	g := RemapCover(f, []string{"x", "y"}, []string{"y", "z", "x"})
	// x→var2, y→var0: cube should be (var0)(var2) = "ac" in 3-space
	if g.String() != "ac" {
		t.Errorf("remap = %v, want ac", g)
	}
}

func TestFactoredLits(t *testing.T) {
	nw := New("fl")
	nw.AddPI("a")
	nw.AddPI("b")
	nw.AddPI("c")
	nw.AddPI("d")
	nw.AddNode("f", []string{"a", "b", "c", "d"}, cube.ParseCover(4, "ac + ad + bc + bd"))
	nw.AddPO("f")
	if nw.SOPLits() != 8 {
		t.Errorf("sop lits = %d", nw.SOPLits())
	}
	if nw.FactoredLits() != 4 {
		t.Errorf("fac lits = %d", nw.FactoredLits())
	}
}

func TestReplaceNodeFunctionCycleRejected(t *testing.T) {
	nw := buildSmall()
	// Making g depend on f would create a cycle.
	err := nw.ReplaceNodeFunction("g", []string{"f"}, cube.ParseCover(1, "a"))
	if err == nil {
		t.Error("cycle not rejected")
	}
}

// TestReplaceNodeFunctionKeptFaninsStillCycleChecked rewrites g with its
// own fanins reordered plus f, which reads g: only f is new, and f alone
// closes the cycle, so skipping the walk for kept fanins must not let it
// through.
func TestReplaceNodeFunctionKeptFaninsStillCycleChecked(t *testing.T) {
	nw := buildSmall()
	cov := cube.ParseCover(3, "abc")
	if err := nw.ReplaceNodeFunction("g", []string{"b", "a", "f"}, cov); err == nil {
		t.Error("network: cycle through a new fanin not rejected")
	}
	if err := nw.ReplaceNodeFunction("g", []string{"b", "a", "c"}, cov); err != nil {
		t.Errorf("acyclic rewrite refused: %v", err)
	}
}

func TestEliminatePreservesFunction(t *testing.T) {
	// Random 3-level networks: eliminate everything, compare by simulation.
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		nw := randomNetwork(r, 4, 5)
		ref := nw.Clone()
		nw.Eliminate(1000) // collapse all
		for w := 0; w < 4; w++ {
			in := map[string]uint64{}
			for _, pi := range nw.PIs() {
				in[pi] = r.Uint64()
			}
			va, vb := ref.Simulate(in), nw.Simulate(in)
			for _, po := range nw.POs() {
				if va[po] != vb[po] {
					t.Fatalf("trial %d: eliminate changed function at %s", trial, po)
				}
			}
		}
	}
}

// randomNetwork builds a small random DAG over nPI inputs with nNode nodes.
func randomNetwork(r *rand.Rand, nPI, nNode int) *Network {
	nw := New("rand")
	signals := []string{}
	for i := 0; i < nPI; i++ {
		name := string(rune('a' + i))
		nw.AddPI(name)
		signals = append(signals, name)
	}
	for i := 0; i < nNode; i++ {
		k := 2 + r.Intn(2)
		if k > len(signals) {
			k = len(signals)
		}
		perm := r.Perm(len(signals))[:k]
		fanins := make([]string, k)
		for j, p := range perm {
			fanins[j] = signals[p]
		}
		cov := cube.NewCover(k)
		for c := 0; c < 1+r.Intn(3); c++ {
			cb := cube.New(k)
			for v := 0; v < k; v++ {
				switch r.Intn(3) {
				case 0:
					cb.Set(v, cube.Pos)
				case 1:
					cb.Set(v, cube.Neg)
				}
			}
			cov.Add(cb)
		}
		if cov.IsZero() {
			cov.Add(cube.New(k))
		}
		name := nw.FreshName("n")
		nw.AddNode(name, fanins, cov)
		signals = append(signals, name)
	}
	nw.AddPO(signals[len(signals)-1])
	return nw
}

func TestLevels(t *testing.T) {
	nw := buildSmall() // g = ab (level 1), f = g + c (level 2)
	lv, depth := nw.Levels()
	if lv["a"] != 0 || lv["g"] != 1 || lv["f"] != 2 {
		t.Errorf("levels = %v", lv)
	}
	if depth != 2 {
		t.Errorf("depth = %d, want 2", depth)
	}
}

func TestCopyFrom(t *testing.T) {
	a := buildSmall()
	b := New("other")
	b.CopyFrom(a)
	if b.Name != a.Name || b.NumNodes() != a.NumNodes() {
		t.Fatal("CopyFrom incomplete")
	}
	// Deep copy: mutating b must not affect a.
	b.Node("g").Cover = cube.ParseCover(2, "a + b")
	if a.Node("g").Cover.NumCubes() != 1 {
		t.Error("CopyFrom aliased node state")
	}
}

func TestFanouts(t *testing.T) {
	nw := buildSmall()
	fo := nw.Fanouts()
	if len(fo["g"]) != 1 || fo["g"][0] != "f" {
		t.Errorf("fanouts(g) = %v", fo["g"])
	}
	if len(fo["a"]) != 1 {
		t.Errorf("fanouts(a) = %v", fo["a"])
	}
}

func TestCheckCatchesUndrivenFanin(t *testing.T) {
	nw := buildSmall()
	nw.Node("f").Fanins[0] = "ghost"
	if err := nw.Check(); err == nil {
		t.Error("undriven fanin not caught")
	}
}

func TestFreshNameAvoidsCollisions(t *testing.T) {
	nw := buildSmall()
	name := nw.FreshName("g")
	if name == "g" || nw.Node(name) != nil {
		t.Errorf("FreshName returned %q", name)
	}
}

func TestWriteDot(t *testing.T) {
	nw := buildSmall()
	var b strings.Builder
	if err := nw.WriteDot(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph", `"a" -> "g"`, `"g" -> "f"`, "peripheries=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
}
