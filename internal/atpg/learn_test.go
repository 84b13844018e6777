package atpg

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
)

// maxFuzzGates bounds the decoded circuit, inputs included.
const maxFuzzGates = 48

// fuzzReader hands out a fuzz input one byte at a time, then zeros.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// fuzzGate is one gate of a decoded circuit; gates refer to earlier gates
// by index, which is also their id in every netlist built from the list.
type fuzzGate struct {
	kind   netlist.Kind
	fanins []int
}

// decodeGate reads one AND/OR/NOT gate over gates 0..id-1: a kind byte,
// for AND and OR a fanin-count byte (2 to 4 fanins), then one byte per
// fanin. Repeated fanins are allowed.
func decodeGate(r *fuzzReader, id int) fuzzGate {
	g := fuzzGate{kind: []netlist.Kind{netlist.And, netlist.Or, netlist.Not}[r.next()%3]}
	n := 1
	if g.kind != netlist.Not {
		n = 2 + r.next()%3
	}
	for j := 0; j < n; j++ {
		g.fanins = append(g.fanins, r.next()%id)
	}
	return g
}

// decodeDAG reads a circuit: an input-count byte (1 to 8 inputs), a
// logic-gate count byte, then the gates.
func decodeDAG(r *fuzzReader) []fuzzGate {
	nIn := 1 + r.next()%8
	nLogic := r.next() % (maxFuzzGates - nIn + 1)
	gates := make([]fuzzGate, nIn, nIn+nLogic)
	for id := nIn; id < nIn+nLogic; id++ {
		gates = append(gates, decodeGate(r, id))
	}
	return gates
}

// buildNetlist builds a fresh netlist whose gate ids are the list indices.
func buildNetlist(gates []fuzzGate) *netlist.Netlist {
	nl := netlist.New()
	addGates(nl, gates)
	return nl
}

// addGates appends the gates to nl; on an empty netlist their ids are the
// list indices.
func addGates(nl *netlist.Netlist, gates []fuzzGate) {
	for i, g := range gates {
		if g.kind == netlist.Input {
			nl.AddInput(fmt.Sprintf("i%d", i))
		} else {
			nl.AddGate(g.kind, g.fanins...)
		}
	}
}

// decodeOptions reads a learning byte (0: no learning, 1 to 4: LearnDepth
// 0 to 3) and a scope byte (even: nil scope; odd: eight mask bytes follow,
// and gate g is in scope when bit g%64 is set). It returns the options for
// Engine and the equivalent pre-change options for refEngine.
func decodeOptions(r *fuzzReader, n int) (Options, refOptions) {
	var opt Options
	if lb := r.next() % 5; lb > 0 {
		opt.Learn = true
		opt.LearnDepth = lb - 1
	}
	ref := refOptions{Learn: opt.Learn, LearnDepth: opt.LearnDepth}
	if r.next()%2 == 1 {
		var mask uint64
		for i := 0; i < 8; i++ {
			mask |= uint64(r.next()) << (8 * i)
		}
		opt.Scope = make([]int, 0, n)
		ref.Scope = make(map[int]bool)
		for g := 0; g < n; g++ {
			if mask>>(g%64)&1 == 1 {
				opt.Scope = append(opt.Scope, g)
				ref.Scope[g] = true
			}
		}
	}
	return opt, ref
}

// decodeAssign reads one assignment: a gate byte and a value byte.
func decodeAssign(r *fuzzReader, n int) alt {
	return alt{gate: r.next() % n, val: Value(r.next() & 1)}
}

// FuzzImplications checks the in-place learning engine against the
// pre-change engine kept in reference_test.go. The input decodes a circuit
// and up to three cases run on one Engine. Each case first binds the
// engine: NewEngine for the first case, then Reset (same options), Rebind
// to the same netlist after appending up to two gates (the patched-trial
// path), or Rebind to a fresh copy of the circuit. It then asserts one to
// four assignments and propagates, and finally asserts one more assignment
// and propagates again without a Reset, as FullSimplify does. After every
// step both engines must agree on the results and on the value of every
// gate; the reference is built fresh for every case.
func FuzzImplications(f *testing.F) {
	// TestRecursiveLearningDepth2's circuit: o = OR(AND(o1,b), AND(o2,b))
	// with o1 = OR(AND(a,c), AND(a,d)) and o2 = OR(AND(a,e), AND(a,f)).
	depth2 := []byte{
		5, 9, // inputs a..f are gates 0..5; nine logic gates follow
		0, 0, 0, 2, // 6: AND(a, c)
		0, 0, 0, 3, // 7: AND(a, d)
		1, 0, 6, 7, // 8: o1 = OR(6, 7)
		0, 0, 0, 4, // 9: AND(a, e)
		0, 0, 0, 5, // 10: AND(a, f)
		1, 0, 9, 10, // 11: o2 = OR(9, 10)
		0, 0, 8, 1, // 12: AND(o1, b)
		0, 0, 11, 1, // 13: AND(o2, b)
		1, 0, 12, 13, // 14: o = OR(12, 13)
	}
	cases := []byte{
		// Case 0: NewEngine; Learn at LearnDepth 2, nil scope; assert o = 1
		// (learning derives a = 1), then e = 0.
		0, 3, 0, 0, 14, 1, 4, 0,
		// Case 1: Rebind to the same netlist, appending no gates; Learn at
		// LearnDepth 1, scope gates 0..14; assert o = 1 and b = 1, then a = 0.
		1, 0, 2, 1, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 1, 14, 1, 1, 1, 0, 0,
		// Case 2: Reset; assert o1 = 1, AND(o2, b) = 0 and c = 1, then a = 0.
		0, 2, 8, 1, 13, 0, 2, 1, 0, 0,
	}
	f.Add(append(append([]byte(nil), depth2...), cases...))
	// TestLearningFindsDeepConflict's circuit, a' = NOT(a) and
	// o = OR(AND(a,b), AND(a,c)), through all three ways of rebinding.
	f.Add([]byte{
		2, 4, // inputs a, b, c are gates 0..2; four logic gates follow
		0, 0, 0, 1, // 3: AND(a, b)
		0, 0, 0, 2, // 4: AND(a, c)
		1, 0, 3, 4, // 5: o = OR(3, 4)
		2, 0, // 6: a' = NOT(a)
		// Case 0: NewEngine; Learn at LearnDepth 0, nil scope; assert o = 1,
		// then a' = 1 (conflicts with the learned a = 1).
		0, 1, 0, 0, 5, 1, 6, 1,
		// Case 1: Rebind to a fresh copy; Learn at LearnDepth 3, scope gates
		// 0..5; assert o = 1 and b = 0, then AND(a, c) = 0.
		2, 4, 1, 0x3f, 0, 0, 0, 0, 0, 0, 0, 1, 5, 1, 1, 0, 4, 0,
		// Case 2: Rebind to the same netlist grown by 7: OR(a', b) and
		// 8: AND(7, o); Learn at LearnDepth 1, nil scope; assert gate 8 = 1,
		// then a = 0.
		1, 2, 1, 0, 6, 1, 0, 0, 7, 5, 2, 0, 0, 8, 1, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		gates := decodeDAG(r)
		nl := buildNetlist(gates)
		var e *Engine
		var opt Options
		var refOpt refOptions
		for c := 0; c < 3 && (c == 0 || len(r.data) > 0); c++ {
			mode := r.next() % 3
			if c == 0 {
				opt, refOpt = decodeOptions(r, len(gates))
				e = NewEngine(nl, opt)
			} else {
				switch mode {
				case 0:
					e.Reset()
				case 1:
					for k := r.next() % 3; k > 0; k-- {
						g := decodeGate(r, len(gates))
						gates = append(gates, g)
						nl.AddGate(g.kind, g.fanins...)
					}
					opt, refOpt = decodeOptions(r, len(gates))
					e.Rebind(nl, opt)
				default:
					nl = buildNetlist(gates)
					opt, refOpt = decodeOptions(r, len(gates))
					e.Rebind(nl, opt)
				}
			}
			ref := newRefEngine(nl, refOpt)
			step := func(what string, as ...alt) {
				for _, a := range as {
					if got, want := e.Assign(a.gate, a.val), ref.Assign(a.gate, a.val); got != want {
						t.Fatalf("case %d %s: Assign(%d, %d) = %v, reference %v", c, what, a.gate, a.val, got, want)
					}
				}
				if got, want := e.Propagate(), ref.Propagate(); got != want {
					t.Fatalf("case %d %s: Propagate = %v, reference %v (options %+v)", c, what, got, want, opt)
				}
				for g := 0; g < nl.NumGates(); g++ {
					if e.Val(g) != ref.Val(g) {
						t.Fatalf("case %d %s: gate %d = %d, reference %d (options %+v)", c, what, g, e.Val(g), ref.Val(g), opt)
					}
				}
			}
			assigns := make([]alt, 1+r.next()%4)
			for i := range assigns {
				assigns[i] = decodeAssign(r, len(gates))
			}
			step("first propagation", assigns...)
			step("second propagation", decodeAssign(r, len(gates)))
		}
	})
}

// TestLearningAllocatesNothing pins the in-place learning pass: once an
// engine with depth-2 learning has run every fault of a circuit, running
// them again allocates nothing. Learning must prove more faults than
// direct implication there, so the sandboxes really run.
func TestLearningAllocatesNothing(t *testing.T) {
	nl := netlist.FromNetwork(bench.Get("mult3")).NL
	faults := pinFaults(nl)
	proofs := func(e *Engine) int {
		n := 0
		for _, f := range faults {
			if Untestable(e, nl, f, -1) {
				n++
			}
		}
		return n
	}
	direct := proofs(NewEngine(nl, Options{}))
	e := NewEngine(nl, Options{Learn: true, LearnDepth: 2})
	if learned := proofs(e); learned <= direct {
		t.Fatalf("learning proved %d faults untestable, direct implications %d: the learning path is not exercised", learned, direct)
	}
	if allocs := testing.AllocsPerRun(3, func() { proofs(e) }); allocs != 0 {
		t.Errorf("a warmed learning engine allocated %.0f times per run over %d faults", allocs, len(faults))
	}
}

// pinFaults lists the wire-removal faults of nl: every AND pin stuck-at-1
// and every OR pin stuck-at-0.
func pinFaults(nl *netlist.Netlist) []Fault {
	var faults []Fault
	for g := 0; g < nl.NumGates(); g++ {
		stuck := One
		switch nl.KindOf(g) {
		case netlist.And:
		case netlist.Or:
			stuck = Zero
		default:
			continue
		}
		for pin := range nl.Fanins(g) {
			faults = append(faults, Fault{Wire: Wire{Gate: g, Pin: pin}, Stuck: stuck})
		}
	}
	return faults
}

// TestLearningExaminesAtMost32Gates pins the learning cap. Each of the
// first `dummies` gates is an OR of two fresh inputs asserted to 1: an
// unjustified gate whose case split teaches nothing. The last gate is
// TestRecursiveLearning's o = OR(AND(a,b), AND(a,c)) asserted to 1, whose
// case split teaches a = 1. A pass examines unjustified gates lowest id
// first, at most 32 of them, so a is learned with 31 dummies and not with
// 32.
func TestLearningExaminesAtMost32Gates(t *testing.T) {
	for _, tc := range []struct {
		dummies int
		want    Value
	}{{31, One}, {32, Unknown}} {
		nl := netlist.New()
		var ors []int
		for i := 0; i < tc.dummies; i++ {
			x := nl.AddInput(fmt.Sprintf("x%d", i))
			y := nl.AddInput(fmt.Sprintf("y%d", i))
			ors = append(ors, nl.AddGate(netlist.Or, x, y))
		}
		a := nl.AddInput("a")
		b := nl.AddInput("b")
		c := nl.AddInput("c")
		o := nl.AddGate(netlist.Or, nl.AddGate(netlist.And, a, b), nl.AddGate(netlist.And, a, c))
		e := NewEngine(nl, Options{Learn: true})
		for _, g := range append(ors, o) {
			e.Assign(g, One)
		}
		if !e.Propagate() {
			t.Fatalf("%d dummies: conflict", tc.dummies)
		}
		if got := e.Val(a); got != tc.want {
			t.Errorf("%d dummies: a = %d, want %d", tc.dummies, got, tc.want)
		}
	}
}
