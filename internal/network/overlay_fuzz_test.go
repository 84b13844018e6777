package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cube"
)

// randOverlayCover builds a deterministic random cover over k variables
// (possibly empty — both views must agree on zero covers too).
func randOverlayCover(r *rand.Rand, k int) cube.Cover {
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
		if !cb.IsEmpty() {
			cov.Add(cb)
		}
	}
	return cov
}

// FuzzOverlayReadEquivalence locks down the Overlay design contract the
// plan/commit engine rests on: after an arbitrary mutation sequence, every
// Reader method — the ID surface netlist builds read included — answers
// byte-identically on the overlay and on a materialized clone that received
// the same mutations, and installing the delta (Network.Install) onto a
// fresh copy of the base reproduces that clone.
func FuzzOverlayReadEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(42), int64(7))
	f.Add(int64(-3), int64(99))
	f.Fuzz(func(t *testing.T, seed, opSeed int64) {
		r := rand.New(rand.NewSource(seed))
		base := randomConeDAG(r, 3+r.Intn(3), 4+r.Intn(6))
		ref := base.Clone() // the mutated clone the overlay must match
		o := NewOverlay(base)

		opr := rand.New(rand.NewSource(opSeed))
		for op := 0; op < 3+opr.Intn(6); op++ {
			live := ref.SortedNodeNames()
			if len(live) == 0 {
				break
			}
			// Fanin candidates for rewrites/additions: PIs then live nodes —
			// identical on both views by the equivalence being established.
			signals := append(append([]string(nil), ref.PIs()...), live...)
			switch opr.Intn(4) {
			case 0: // ReplaceNodeFunction (cycle refusals must agree too)
				name := live[opr.Intn(len(live))]
				var cands []string
				for _, s := range signals {
					if s != name {
						cands = append(cands, s)
					}
				}
				k := 1 + opr.Intn(3)
				if k > len(cands) {
					k = len(cands)
				}
				perm := opr.Perm(len(cands))[:k]
				fanins := make([]string, k)
				for j, p := range perm {
					fanins[j] = cands[p]
				}
				cov := randOverlayCover(opr, k)
				e1 := o.ReplaceNodeFunction(name, fanins, cov.Clone())
				e2 := ref.ReplaceNodeFunction(name, fanins, cov.Clone())
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("ReplaceNodeFunction(%s): overlay err=%v, clone err=%v", name, e1, e2)
				}
			case 1: // SetNodeCover (same fanin arity, new cover)
				name := live[opr.Intn(len(live))]
				cov := randOverlayCover(opr, len(ref.Node(name).Fanins))
				o.SetNodeCover(name, cov.Clone())
				ref.SetNodeCover(name, cov.Clone())
			case 2: // AddNode under a FreshName probe (must agree first)
				n1, n2 := o.FreshName("t"), ref.FreshName("t")
				if n1 != n2 {
					t.Fatalf("FreshName diverged: overlay %q, clone %q", n1, n2)
				}
				k := 1 + opr.Intn(3)
				if k > len(signals) {
					k = len(signals)
				}
				perm := opr.Perm(len(signals))[:k]
				fanins := make([]string, k)
				for j, p := range perm {
					fanins[j] = signals[p]
				}
				cov := randOverlayCover(opr, k)
				o.AddNode(n1, fanins, cov.Clone())
				ref.AddNode(n1, fanins, cov.Clone())
			case 3: // NormalizeNode
				name := live[opr.Intn(len(live))]
				o.NormalizeNode(name)
				ref.NormalizeNode(name)
			}
		}

		// Every Reader method, byte for byte.
		if o.NetName() != ref.NetName() {
			t.Errorf("NetName: %q vs %q", o.NetName(), ref.NetName())
		}
		if !reflect.DeepEqual(o.PIs(), ref.PIs()) {
			t.Errorf("PIs: %v vs %v", o.PIs(), ref.PIs())
		}
		if !reflect.DeepEqual(o.POs(), ref.POs()) {
			t.Errorf("POs: %v vs %v", o.POs(), ref.POs())
		}
		if got, want := sigNames(o, o.TopoOrderIDs()), ref.TopoOrder(); !slices.Equal(got, want) {
			t.Errorf("TopoOrderIDs: %v vs %v", got, want)
		}
		on, rn := o.Nodes(), ref.Nodes()
		if len(on) != len(rn) {
			t.Fatalf("Nodes: %d vs %d entries", len(on), len(rn))
		}
		for i := range on {
			if err := sameNode(on[i], rn[i]); err != nil {
				t.Errorf("Nodes[%d]: %v", i, err)
			}
		}

		// Per-signal queries over the full name space (plus a never-existed
		// name for the nil answers).
		signals := append(append([]string(nil), ref.PIs()...), ref.SortedNodeNames()...)
		for _, name := range append(signals, "no_such_signal") {
			if err := sameNode(o.Node(name), ref.Node(name)); err != nil {
				t.Errorf("Node(%q): %v", name, err)
			}
			if o.IsPI(name) != ref.IsPI(name) {
				t.Errorf("IsPI(%q): %v vs %v", name, o.IsPI(name), ref.IsPI(name))
			}
		}
		// The ID surface: every signal resolves, round-trips through
		// SigName, and reads the same node and fanins by ID.
		for _, name := range signals {
			id, ok := o.IDOf(name)
			if !ok || o.SigName(id) != name {
				t.Errorf("IDOf(%q) = %d, %v; SigName round-trip failed", name, id, ok)
				continue
			}
			rid, _ := ref.IDOf(name)
			if err := sameNode(o.NodeByID(id), ref.NodeByID(rid)); err != nil {
				t.Errorf("NodeByID(%q): %v", name, err)
			}
			if got, want := sigNames(o, o.FaninIDsOf(id)), sigNames(ref, ref.FaninIDsOf(rid)); !slices.Equal(got, want) {
				t.Errorf("FaninIDsOf(%q): %v vs %v", name, got, want)
			}
		}
		for _, a := range signals {
			for _, b := range signals {
				if o.DependsOn(a, b) != ref.DependsOn(a, b) {
					t.Errorf("DependsOn(%q, %q): %v vs %v", a, b, o.DependsOn(a, b), ref.DependsOn(a, b))
				}
			}
		}
		for _, prefix := range []string{"t", "n", "i"} {
			if got, want := o.FreshName(prefix), ref.FreshName(prefix); got != want {
				t.Errorf("FreshName(%q): %q vs %q", prefix, got, want)
			}
		}
		if got, want := o.Clone().String(), ref.String(); got != want {
			t.Errorf("Clone diverged from mutated clone:\n%s\nvs:\n%s", got, want)
		}
		// Committing the delta onto the state the overlay was created over.
		dst := base.Clone()
		dst.Install(o.Added(), o.Changed())
		if got, want := dst.String(), ref.String(); got != want {
			t.Errorf("Install diverged from mutated clone:\n%s\nvs:\n%s", got, want)
		}
		if err := dst.Check(); err != nil {
			t.Errorf("Install result fails Check: %v", err)
		}
	})
}

// sigNames maps IDs to names through r.
func sigNames(r Reader, ids []SigID) []string {
	var out []string
	for _, id := range ids {
		out = append(out, r.SigName(id))
	}
	return out
}

func sameNode(a, b *Node) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("present=%v vs %v", a != nil, b != nil)
	}
	if a == nil {
		return nil
	}
	if a.Name != b.Name {
		return fmt.Errorf("name %q vs %q", a.Name, b.Name)
	}
	if !reflect.DeepEqual(a.Fanins, b.Fanins) {
		return fmt.Errorf("fanins %v vs %v", a.Fanins, b.Fanins)
	}
	if a.Cover.String() != b.Cover.String() {
		return fmt.Errorf("cover %v vs %v", a.Cover, b.Cover)
	}
	return nil
}
