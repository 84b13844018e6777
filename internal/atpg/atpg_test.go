package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
	"repro/internal/netlist"
	"repro/internal/network"
)

// redundantCircuit builds f = ab + ab' (= a): wire b of the first AND is
// stuck-at-1 redundant; wire a is not.
func redundantCircuit() (*netlist.Netlist, struct{ a, b, nb, g1, g2, out int }) {
	nl := netlist.New()
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	nb := nl.Invert(b)
	g1 := nl.AddGate(netlist.And, a, b)
	g2 := nl.AddGate(netlist.And, a, nb)
	out := nl.AddGate(netlist.Or, g1, g2)
	return nl, struct{ a, b, nb, g1, g2, out int }{a, b, nb, g1, g2, out}
}

func TestForwardImplications(t *testing.T) {
	nl, c := redundantCircuit()
	e := NewEngine(nl, Options{})
	if !e.Assign(c.a, One) || !e.Assign(c.b, One) || !e.Propagate() {
		t.Fatal("unexpected conflict")
	}
	if e.Val(c.g1) != One {
		t.Error("g1 should be 1")
	}
	if e.Val(c.nb) != Zero || e.Val(c.g2) != Zero {
		t.Error("nb/g2 should be 0")
	}
	if e.Val(c.out) != One {
		t.Error("out should be 1")
	}
}

func TestBackwardImplications(t *testing.T) {
	nl, c := redundantCircuit()
	e := NewEngine(nl, Options{})
	// out = 0 forces both AND gates to 0; nothing more.
	if !e.Assign(c.out, Zero) || !e.Propagate() {
		t.Fatal("conflict")
	}
	if e.Val(c.g1) != Zero || e.Val(c.g2) != Zero {
		t.Error("ANDs should be 0")
	}
	// g1 = 1 forces a = b = 1, hence nb = 0, g2 = 0.
	e.Reset()
	if !e.Assign(c.g1, One) || !e.Propagate() {
		t.Fatal("conflict")
	}
	if e.Val(c.a) != One || e.Val(c.b) != One || e.Val(c.g2) != Zero {
		t.Error("backward AND=1 implications missing")
	}
}

func TestLastUnknownBackward(t *testing.T) {
	nl, c := redundantCircuit()
	e := NewEngine(nl, Options{})
	// out=1, g1=0: the only way is g2=1 → a=1, b=0.
	if !e.Assign(c.out, One) || !e.Assign(c.g1, Zero) || !e.Propagate() {
		t.Fatal("conflict")
	}
	if e.Val(c.g2) != One || e.Val(c.a) != One || e.Val(c.b) != Zero {
		t.Errorf("vals: g2=%v a=%v b=%v", e.Val(c.g2), e.Val(c.a), e.Val(c.b))
	}
}

func TestConflictDetected(t *testing.T) {
	nl, c := redundantCircuit()
	e := NewEngine(nl, Options{})
	if !e.Assign(c.a, Zero) {
		t.Fatal("assign failed")
	}
	if e.Assign(c.out, One) && e.Propagate() {
		t.Error("a=0 with out=1 should conflict (f = a)")
	}
}

func TestResetReuse(t *testing.T) {
	nl, c := redundantCircuit()
	e := NewEngine(nl, Options{})
	e.Assign(c.a, Zero)
	e.Propagate()
	e.Reset()
	if e.Val(c.a) != Unknown || e.Val(c.out) != Unknown {
		t.Error("Reset did not clear")
	}
	if !e.Assign(c.a, One) || !e.Propagate() {
		t.Error("engine unusable after Reset")
	}
}

func TestUntestableRedundantWire(t *testing.T) {
	nl, c := redundantCircuit()
	e := NewEngine(nl, Options{})
	// wire b→g1 (pin 1) stuck-at-1: f is unchanged (= a), so untestable.
	if !Untestable(e, nl, Fault{Wire: Wire{Gate: c.g1, Pin: 1}, Stuck: One}, -1) {
		t.Error("redundant wire not proved untestable")
	}
	// wire a→g1 (pin 0) stuck-at-1: f becomes b + ab' ≠ a: testable.
	if Untestable(e, nl, Fault{Wire: Wire{Gate: c.g1, Pin: 0}, Stuck: One}, -1) {
		t.Error("testable wire claimed untestable")
	}
}

func TestRemoveIfUntestablePreservesFunction(t *testing.T) {
	nl, c := redundantCircuit()
	e := NewEngine(nl, Options{})
	before := nl.Eval(map[string]uint64{"a": 0b1100, "b": 0b1010})[c.out]
	if !RemoveIfUntestable(e, nl, Wire{Gate: c.g1, Pin: 1}, One, -1) {
		t.Fatal("removal refused")
	}
	after := nl.Eval(map[string]uint64{"a": 0b1100, "b": 0b1010})[c.out]
	if before&0xF != after&0xF {
		t.Errorf("function changed: %04b -> %04b", before&0xF, after&0xF)
	}
	if len(nl.Fanins(c.g1)) != 1 {
		t.Error("pin not removed")
	}
}

// TestRARFig1 reproduces the paper's Fig. 1 flow in spirit: adding a
// redundant connection makes previously irredundant wires redundant, and
// removing them shrinks the circuit while preserving the function.
func TestRARFig1(t *testing.T) {
	// f = ab + ab'c. Adding nothing: wire b' in the second cube is
	// irredundant? f = ab + ac·b' ... choose the classic: after adding the
	// redundant wire "a" nothing changes; instead demonstrate on
	// f = ab + ab'c where b'-pin is redundant: ab + ab'c = ab + ac.
	nl := netlist.New()
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	cc := nl.AddInput("c")
	nb := nl.Invert(b)
	g1 := nl.AddGate(netlist.And, a, b)
	g2 := nl.AddGate(netlist.And, a, nb, cc)
	out := nl.AddGate(netlist.Or, g1, g2)
	e := NewEngine(nl, Options{})

	in := map[string]uint64{"a": 0xF0F0F0F0, "b": 0xFF00FF00, "c": 0xFFFF0000}
	before := nl.Eval(in)[out]

	// b' pin of g2 (pin 1) stuck-at-1: f = ab + ac — same function.
	if !RemoveIfUntestable(e, nl, Wire{Gate: g2, Pin: 1}, One, -1) {
		t.Fatal("b' wire not removed")
	}
	after := nl.Eval(in)[out]
	if before != after {
		t.Error("function changed by RAR removal")
	}
	if len(nl.Fanins(g2)) != 2 {
		t.Errorf("g2 fanins = %v", nl.Fanins(g2))
	}
}

func TestScopeRestriction(t *testing.T) {
	nl, c := redundantCircuit()
	// Exclude g2/nb from scope: the untestability proof for wire b→g1 needs
	// implications through them, so it must fail in restricted scope.
	scope := []int{c.a, c.b, c.g1, c.out}
	e := NewEngine(nl, Options{Scope: scope})
	if Untestable(e, nl, Fault{Wire: Wire{Gate: c.g1, Pin: 1}, Stuck: One}, -1) {
		t.Error("proof should not go through outside scope")
	}
	// Full scope: proof found.
	e2 := NewEngine(nl, Options{})
	if !Untestable(e2, nl, Fault{Wire: Wire{Gate: c.g1, Pin: 1}, Stuck: One}, -1) {
		t.Error("full scope should prove untestable")
	}
}

func TestRecursiveLearning(t *testing.T) {
	// o = OR(AND(a,b), AND(a,c)): o=1 implies a=1 only via case split.
	nl := netlist.New()
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	cc := nl.AddInput("c")
	x1 := nl.AddGate(netlist.And, a, b)
	x2 := nl.AddGate(netlist.And, a, cc)
	o := nl.AddGate(netlist.Or, x1, x2)

	plain := NewEngine(nl, Options{})
	plain.Assign(o, One)
	if !plain.Propagate() {
		t.Fatal("conflict")
	}
	if plain.Val(a) != Unknown {
		t.Error("direct implications should not derive a")
	}

	learn := NewEngine(nl, Options{Learn: true})
	learn.Assign(o, One)
	if !learn.Propagate() {
		t.Fatal("conflict")
	}
	if learn.Val(a) != One {
		t.Error("learning should derive a = 1")
	}
}

func TestLearningFindsDeepConflict(t *testing.T) {
	// o = OR(AND(a,b), AND(a,c)), na = NOT a. Asserting o=1 and na=1 is
	// inconsistent; na=1 → a=0 kills both ANDs directly, so to force the
	// learning path assert o=1 first, then na=1 must conflict after the
	// learned a=1.
	nl := netlist.New()
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	cc := nl.AddInput("c")
	na := nl.Invert(a)
	x1 := nl.AddGate(netlist.And, a, b)
	x2 := nl.AddGate(netlist.And, a, cc)
	o := nl.AddGate(netlist.Or, x1, x2)

	e := NewEngine(nl, Options{Learn: true})
	e.Assign(o, One)
	if !e.Propagate() {
		t.Fatal("o=1 alone should be consistent")
	}
	if e.Assign(na, One) && e.Propagate() {
		t.Error("o=1 ∧ a'=1 should conflict")
	}
}

func TestStopAfterLimitsDominatorWalk(t *testing.T) {
	// chain: g1=AND(a,b) → n=NOT(g1) → o=OR(n, c). Fault on a→g1 s-a-1.
	// With the full walk the side input c is required 0; with stopAfter=1
	// (only the NOT) it is not.
	nl := netlist.New()
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	cc := nl.AddInput("c")
	g1 := nl.AddGate(netlist.And, a, b)
	n := nl.AddGate(netlist.Not, g1)
	o := nl.AddGate(netlist.Or, n, cc)
	_ = o

	e := NewEngine(nl, Options{})
	e.Reset()
	if !MandatoryAssignments(e, nl, Fault{Wire: Wire{Gate: g1, Pin: 0}, Stuck: One}, -1) || !e.Propagate() {
		t.Fatal("conflict")
	}
	if e.Val(cc) != Zero {
		t.Error("full walk should require c = 0")
	}
	e.Reset()
	if !MandatoryAssignments(e, nl, Fault{Wire: Wire{Gate: g1, Pin: 0}, Stuck: One}, 1) || !e.Propagate() {
		t.Fatal("conflict")
	}
	if e.Val(cc) != Unknown {
		t.Error("stopAfter=1 should not constrain c")
	}
}

// TestORPinStepsPastSingleFanout locks the one place a region-local proof
// looks past a node's output: at stopAfter 1 (the bound Basic and Extended
// trials use), a stuck-at-0 fault on a pin of node f's OR gate steps to
// that gate's single fanout — a cube gate of f's reader — and asserts its
// side input, unless the OR gate is a PO or has another fanout. A literal
// fault's one step ends at the OR gate itself.
func TestORPinStepsPastSingleFanout(t *testing.T) {
	for _, tc := range []struct {
		name      string
		po, twice bool
		want      Value
	}{
		{"single non-PO fanout", false, false, One},
		{"PO", true, false, Unknown},
		{"two fanouts", false, true, Unknown},
	} {
		// f = ab + bc feeds its reader's cube h = f·d (and, twice, k = f·d).
		nl := netlist.New()
		a := nl.AddInput("a")
		b := nl.AddInput("b")
		c := nl.AddInput("c")
		d := nl.AddInput("d")
		g1 := nl.AddGate(netlist.And, a, b)
		g2 := nl.AddGate(netlist.And, b, c)
		f := nl.AddGate(netlist.Or, g1, g2)
		nl.AddGate(netlist.And, f, d)
		if tc.twice {
			nl.AddGate(netlist.And, f, d)
		}
		if tc.po {
			nl.MarkPO(f)
		}
		e := NewEngine(nl, Options{})
		e.Reset()
		if !MandatoryAssignments(e, nl, Fault{Wire: Wire{Gate: f, Pin: 0}, Stuck: Zero}, 1) {
			t.Fatalf("%s: OR-pin fault: conflict", tc.name)
		}
		if e.Val(g1) != One || e.Val(g2) != Zero {
			t.Errorf("%s: OR-pin fault: activation g1=%v, OR side input g2=%v", tc.name, e.Val(g1), e.Val(g2))
		}
		if e.Val(d) != tc.want {
			t.Errorf("%s: OR-pin fault asserts the reader's side input d=%v, want %v", tc.name, e.Val(d), tc.want)
		}
		e.Reset()
		if !MandatoryAssignments(e, nl, Fault{Wire: Wire{Gate: g1, Pin: 0}, Stuck: One}, 1) {
			t.Fatalf("%s: literal fault: conflict", tc.name)
		}
		if e.Val(g2) != Zero || e.Val(d) != Unknown {
			t.Errorf("%s: literal fault's step: g2=%v d=%v, want it to end at f's OR gate", tc.name, e.Val(g2), e.Val(d))
		}
	}
}

// TestMandatoryAssignmentsAvoidFaultTFO checks the argument that lets
// MandatoryAssignments assert side inputs without marking the fault's
// transitive fanout: on random DAGs (repeated fanins and multi-fanout
// stems included, sinks and a random third of the gates marked as POs),
// for every wire fault and dominator walk length, no gate it asserts lies
// in the faulted gate's fanout cone as netlist.TFO walks it. A dominator
// walk that stepped past a multi-fanout gate would fail here.
func TestMandatoryAssignmentsAvoidFaultTFO(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	asserted := map[int]int{}
	for i := 0; i < 300; i++ {
		data := make([]byte, 4*maxFuzzGates)
		r.Read(data)
		nl := buildNetlist(decodeDAG(&fuzzReader{data}))
		for g := 0; g < nl.NumGates(); g++ {
			if len(nl.Fanouts(g)) == 0 || r.Intn(3) == 0 {
				nl.MarkPO(g)
			}
		}
		e := NewEngine(nl, Options{})
		for _, f := range allWireFaults(nl) {
			tfo := nl.TFO(f.Wire.Gate)
			for _, stopAfter := range []int{0, 1, 2, -1} {
				e.Reset()
				MandatoryAssignments(e, nl, f, stopAfter)
				for _, g := range e.trail {
					if tfo[g] {
						t.Fatalf("DAG %d, fault %+v, stopAfter %d: asserted gate %d lies in the fanout cone of gate %d",
							i, f, stopAfter, g, f.Wire.Gate)
					}
				}
				asserted[stopAfter] += len(e.trail)
			}
		}
	}
	if asserted[-1] <= asserted[0] {
		t.Fatalf("vacuous: the full dominator walks asserted %d gates, the faulted gates alone %d", asserted[-1], asserted[0])
	}
}

// TestUntestabilityIsSound fuzz-checks removal soundness on a real network:
// every wire the engine removes must leave all POs unchanged.
func TestUntestabilityIsSound(t *testing.T) {
	nw := network.New("s")
	for _, pi := range []string{"a", "b", "c", "d"} {
		nw.AddPI(pi)
	}
	nw.AddNode("g", []string{"a", "b"}, cube.ParseCover(2, "ab + a'b'"))
	nw.AddNode("h", []string{"g", "c"}, cube.ParseCover(2, "ab + a'b'"))
	nw.AddNode("f", []string{"h", "d", "a"}, cube.ParseCover(3, "ab + bc + ac'"))
	nw.AddPO("f")
	b := netlist.FromNetwork(nw)
	nl := b.NL

	ref := func() []uint64 {
		in := map[string]uint64{"a": 0xAAAAAAAAAAAAAAAA, "b": 0xCCCCCCCCCCCCCCCC, "c": 0xF0F0F0F0F0F0F0F0, "d": 0xFF00FF00FF00FF00}
		v := nl.Eval(in)
		out := make([]uint64, len(nl.POs))
		for i, po := range nl.POs {
			out[i] = v[po]
		}
		return out
	}
	before := ref()
	e := NewEngine(nl, Options{Learn: true})
	removed := 0
	for g := 0; g < nl.NumGates(); g++ {
		if nl.KindOf(g) != netlist.And && nl.KindOf(g) != netlist.Or {
			continue
		}
		stuck := One
		if nl.KindOf(g) == netlist.Or {
			stuck = Zero
		}
		for pin := len(nl.Fanins(g)) - 1; pin >= 0; pin-- {
			if RemoveIfUntestable(e, nl, Wire{Gate: g, Pin: pin}, stuck, -1) {
				removed++
				after := ref()
				for i := range after {
					if after[i] != before[i] {
						t.Fatalf("removal at gate %d pin %d changed PO %d", g, pin, i)
					}
				}
			}
		}
	}
	t.Logf("removed %d redundant wires", removed)
}

func TestRecursiveLearningDepth2(t *testing.T) {
	// o = OR(AND(o1,b), AND(o2,b)) with o1 = OR(AND(a,c), AND(a,d)) and
	// o2 = OR(AND(a,e), AND(a,f)). Deriving a=1 from o=1 needs learning
	// inside the case split — depth 2.
	nl := netlist.New()
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	c := nl.AddInput("c")
	d := nl.AddInput("d")
	ee := nl.AddInput("e")
	f := nl.AddInput("f")
	o1 := nl.AddGate(netlist.Or, nl.AddGate(netlist.And, a, c), nl.AddGate(netlist.And, a, d))
	o2 := nl.AddGate(netlist.Or, nl.AddGate(netlist.And, a, ee), nl.AddGate(netlist.And, a, f))
	o := nl.AddGate(netlist.Or, nl.AddGate(netlist.And, o1, b), nl.AddGate(netlist.And, o2, b))

	depth1 := NewEngine(nl, Options{Learn: true, LearnDepth: 1})
	depth1.Assign(o, One)
	if !depth1.Propagate() {
		t.Fatal("conflict at depth 1")
	}
	// Depth 1 learns b=1 (common to both alternatives) but cannot reach a.
	if depth1.Val(b) != One {
		t.Error("depth 1 should learn b = 1")
	}
	if depth1.Val(a) == One {
		t.Skip("depth 1 unexpectedly strong (iterated learning); depth-2 test vacuous")
	}

	depth2 := NewEngine(nl, Options{Learn: true, LearnDepth: 2})
	depth2.Assign(o, One)
	if !depth2.Propagate() {
		t.Fatal("conflict at depth 2")
	}
	if depth2.Val(a) != One {
		t.Error("depth 2 should learn a = 1")
	}
}

func TestLearningDepthMonotone(t *testing.T) {
	// Anything derived at depth 1 is derived at depth 2 on the redundant
	// circuit (removals can only grow with depth).
	nl, c := redundantCircuit()
	for _, depth := range []int{1, 2, 3} {
		e := NewEngine(nl, Options{Learn: true, LearnDepth: depth})
		if !Untestable(e, nl, Fault{Wire: Wire{Gate: c.g1, Pin: 1}, Stuck: One}, -1) {
			t.Errorf("depth %d: redundant wire not proved", depth)
		}
	}
}

// TestConstantGateAlwaysEvaluated: a constant gate has no fanins, so no
// assignment ever marks it dirty, yet evaluating it assigns its value.
// propagateDirect must evaluate it whenever it is popped: with c0 = OR()
// (constant 0) and o = OR(c0, x), asserting o = 1 pops c0 as a fanin of o,
// and c0 = 0 leaves x as o's only possible 1.
func TestConstantGateAlwaysEvaluated(t *testing.T) {
	nl := netlist.New()
	x := nl.AddInput("x")
	c0 := nl.AddGate(netlist.Or)
	o := nl.AddGate(netlist.Or, c0, x)
	for _, opt := range []Options{{}, {Learn: true}} {
		e := NewEngine(nl, opt)
		for round := 0; round < 2; round++ { // fresh, then after a Reset
			if !e.Assign(o, One) || !e.Propagate() {
				t.Fatalf("%+v round %d: o = 1 conflicted", opt, round)
			}
			if e.Val(c0) != Zero || e.Val(x) != One {
				t.Errorf("%+v round %d: o = 1 gave c0 = %v, x = %v; want 0, 1", opt, round, e.Val(c0), e.Val(x))
			}
			e.Reset()
		}
	}
}
