package atpg

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
)

// pickGate reads a gate byte and returns the first gate from there on, in
// cyclic id order, that ok accepts, or -1 when none does.
func pickGate(r *fuzzReader, nl *netlist.Netlist, ok func(g int) bool) int {
	n := nl.NumGates()
	start := r.next() % n
	for i := 0; i < n; i++ {
		if g := (start + i) % n; ok(g) {
			return g
		}
	}
	return -1
}

// isAndOr reports whether gate g of nl is an AND or an OR gate.
func isAndOr(nl *netlist.Netlist, g int) bool {
	k := nl.KindOf(g)
	return k == netlist.And || k == netlist.Or
}

// checkWitnessMemo fails unless, once caught up on nl's edits, every gate
// the witness memo of e holds carries the words Netlist.Eval computes from
// the same input words.
func checkWitnessMemo(t *testing.T, e *Engine, nl *netlist.Netlist, what string) {
	t.Helper()
	e.sim.catchUp(nl)
	for i := 0; i < simWords; i++ {
		in := map[string]uint64{}
		for g := 0; g < nl.NumGates(); g++ {
			if nl.KindOf(g) == netlist.Input {
				in[nl.NameOf(g)] = inputWord(g, i)
			}
		}
		want := nl.Eval(in)
		for g, w := range want {
			if e.sim.marked(g) && e.sim.words[g][i] != w {
				t.Fatalf("%s: memoized gate %d word %d = %#x, Eval %#x", what, g, i, e.sim.words[g][i], w)
			}
		}
	}
}

// FuzzWitness checks Untestable's simulation witness. The input decodes a
// circuit, engine options and up to eight queries on one Engine. Before each
// query one edit is applied: none, AddGate, RemovePin outside a transaction,
// AddPin inside one, RollbackTx, Rebind with new options, a rebuild of the
// decoded circuit in place (Reset), or a rebuild into a fresh netlist the
// engine is rebound to. The engine is also rebound whenever the netlist
// outgrew it, as its callers do. Each query tests one stuck-at fault at
// stopAfter −1, 0 or 1, and its verdict must equal MandatoryAssignments
// and Propagate on a fresh engine. After each query every memoized gate's
// words must equal Netlist.Eval on the same input words.
func FuzzWitness(f *testing.F) {
	// redundantCircuit's f = ab + ab': wire b of AND(a, b) stuck-at-1 is
	// untestable (mandatory b = 0, a = 1 and AND(a, b') = 0 conflict), and
	// dropping any one of those assignments leaves a witness.
	redundant := []byte{
		1, 4, // inputs a, b are gates 0, 1; four logic gates follow
		2, 1, // 2: b' = NOT(b)
		0, 0, 0, 1, // 3: AND(a, b)
		0, 0, 0, 2, // 4: AND(a, b')
		1, 0, 3, 4, // 5: OR(3, 4)
		0, 0, // no learning, nil scope
	}
	f.Add(append(append([]byte(nil), redundant...),
		0, 3, 1, 1, 0, // no edit; gate 3 pin 1 stuck-at-1, walk to the outputs
		0, 3, 0, 1, 0, // no edit; gate 3 pin 0 stuck-at-1 (testable)
		3, 4, 1, 3, 1, 1, 0, // AddPin(4, b) in a transaction: gate 4 is now 0, the wire testable
		4, 3, 1, 1, 0, // RollbackTx; the redundant wire again
		2, 5, 1, 3, 1, 1, 0, // RemovePin(5, 1) outside a transaction: f = ab, the wire testable
		6, 0, 0, 3, 1, 1, 0, // rebuild in place (same options); the redundant wire again
		5, 1, 1, 0xff, 0, 0, 0, 0, 0, 0, 0, 3, 1, 1, 1, // Rebind with learning and a scope; stopAfter 0
	))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 48; i++ {
		data := make([]byte, 96+rng.Intn(160))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		gates := decodeDAG(r)
		nl := buildNetlist(gates)
		opt, _ := decodeOptions(r, nl.NumGates())
		e := NewEngine(nl, opt)
		txOpen := false
		closeTx := func() {
			if txOpen {
				nl.EndTx()
				txOpen = false
			}
		}
		for q := 0; q < 8 && (q == 0 || len(r.data) > 0); q++ {
			var edit string
			switch r.next() % 8 {
			case 1:
				edit = "AddGate"
				g := decodeGate(r, nl.NumGates())
				nl.AddGate(g.kind, g.fanins...)
			case 2:
				edit = "RemovePin"
				closeTx()
				if g := pickGate(r, nl, func(g int) bool { return isAndOr(nl, g) && len(nl.Fanins(g)) > 0 }); g >= 0 {
					nl.RemovePin(g, r.next()%len(nl.Fanins(g)))
				}
			case 3:
				edit = "AddPin"
				if !txOpen {
					nl.BeginTx()
					txOpen = true
				}
				// The new fanin has a lower id, which keeps the netlist a DAG.
				if g := pickGate(r, nl, func(g int) bool { return g > 0 && isAndOr(nl, g) }); g >= 0 {
					nl.AddPin(g, r.next()%g)
				}
			case 4:
				edit = "RollbackTx"
				if txOpen {
					nl.RollbackTx()
				}
			case 5:
				edit = "Rebind"
				opt, _ = decodeOptions(r, nl.NumGates())
				e.Rebind(nl, opt)
			case 6:
				edit = "rebuild"
				closeTx()
				nl.Reset()
				addGates(nl, gates)
				opt, _ = decodeOptions(r, nl.NumGates())
				e.Rebind(nl, opt)
			case 7:
				edit = "fresh netlist"
				txOpen = false
				nl = buildNetlist(gates)
				opt, _ = decodeOptions(r, nl.NumGates())
				e.Rebind(nl, opt)
			default:
				edit = "no edit"
			}
			// A rollback can shrink the netlist below the scope list.
			if opt.Scope != nil && slices.Max(append(opt.Scope, 0)) >= nl.NumGates() {
				opt.Scope = slices.DeleteFunc(opt.Scope, func(g int) bool { return g >= nl.NumGates() })
				e.Rebind(nl, opt)
			}
			if nl.NumGates() > len(e.val) {
				e.Rebind(nl, opt)
			}
			g := pickGate(r, nl, func(g int) bool { return len(nl.Fanins(g)) > 0 })
			if g < 0 {
				continue
			}
			fault := Fault{Wire: Wire{Gate: g, Pin: r.next() % len(nl.Fanins(g))}, Stuck: Value(r.next() & 1)}
			stopAfter := r.next()%3 - 1
			got := Untestable(e, nl, fault, stopAfter)
			ref := NewEngine(nl, opt)
			want := !(MandatoryAssignments(ref, nl, fault, stopAfter) && ref.Propagate())
			if got != want {
				t.Fatalf("query %d after %s: Untestable(%+v, stopAfter %d) = %v, implication %v (options %+v)",
					q, edit, fault, stopAfter, got, want, opt)
			}
			checkWitnessMemo(t, e, nl, edit)
		}
	})
}

// TestWitnessSettlesTestableFaults checks that witnesses fire: over the
// faults BenchmarkAblationLearning tests on the suite's netlists (every
// AND pin stuck-at-1 and OR pin stuck-at-0, dominator walk to the outputs),
// a simulation witness settles at least 80% of those that are testable.
func TestWitnessSettlesTestableFaults(t *testing.T) {
	testable, witnessed := 0, 0
	for _, name := range bench.Names() {
		nl := netlist.FromNetwork(bench.Get(name)).NL
		e := NewEngine(nl, Options{})
		for _, f := range pinFaults(nl) {
			if !Untestable(e, nl, f, -1) {
				testable++
			}
		}
		witnessed += e.Witnessed()
	}
	if testable == 0 || witnessed*5 < testable*4 {
		t.Fatalf("witnesses settled %d of %d testable faults, want at least 80%%", witnessed, testable)
	}
	t.Logf("witnesses settled %d of %d testable faults", witnessed, testable)
}
