package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
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
// Reader method answers byte-identically on the overlay and on a
// materialized clone that received the same mutations. The op generator
// never re-adds a deleted base name (additions use the "t" prefix, the
// generator's nodes the "n" prefix), matching the engine's usage — Overlay
// documents re-adding as unsupported.
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
		added := map[string]bool{}
		var deleted []string
		for op := 0; op < 3+opr.Intn(6); op++ {
			live := ref.SortedNodeNames()
			if len(live) == 0 {
				break
			}
			// Fanin candidates for rewrites/additions: PIs then live nodes —
			// identical on both views by the equivalence being established.
			signals := append(append([]string(nil), ref.PIs()...), live...)
			switch opr.Intn(5) {
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
				added[n1] = true
			case 3: // RemoveNode: fanout-free base nodes only (engine usage)
				fanouts := ref.Fanouts()
				var cands []string
				for _, name := range live {
					if !added[name] && len(fanouts[name]) == 0 {
						cands = append(cands, name)
					}
				}
				if len(cands) == 0 {
					continue
				}
				name := cands[opr.Intn(len(cands))]
				o.RemoveNode(name)
				ref.RemoveNode(name)
				deleted = append(deleted, name)
			case 4: // NormalizeNode
				name := live[opr.Intn(len(live))]
				o.NormalizeNode(name)
				ref.NormalizeNode(name)
			}
		}

		// Every Reader method, byte for byte.
		if o.NetName() != ref.NetName() {
			t.Errorf("NetName: %q vs %q", o.NetName(), ref.NetName())
		}
		if o.NumNodes() != ref.NumNodes() {
			t.Errorf("NumNodes: %d vs %d", o.NumNodes(), ref.NumNodes())
		}
		if !reflect.DeepEqual(o.PIs(), ref.PIs()) {
			t.Errorf("PIs: %v vs %v", o.PIs(), ref.PIs())
		}
		if !reflect.DeepEqual(o.POs(), ref.POs()) {
			t.Errorf("POs: %v vs %v", o.POs(), ref.POs())
		}
		if got, want := o.TopoOrder(), ref.TopoOrder(); !reflect.DeepEqual(got, want) {
			t.Errorf("TopoOrder: %v vs %v", got, want)
		}
		if got, want := o.SortedNodeNames(), ref.SortedNodeNames(); !reflect.DeepEqual(got, want) {
			t.Errorf("SortedNodeNames: %v vs %v", got, want)
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

		// Per-signal queries over the full name space (plus deleted and
		// never-existed names for the nil answers).
		signals := append(append([]string(nil), ref.PIs()...), ref.SortedNodeNames()...)
		probes := append(append([]string(nil), signals...), deleted...)
		probes = append(probes, "no_such_signal")
		for _, name := range probes {
			if err := sameNode(o.Node(name), ref.Node(name)); err != nil {
				t.Errorf("Node(%q): %v", name, err)
			}
			if o.IsPI(name) != ref.IsPI(name) {
				t.Errorf("IsPI(%q): %v vs %v", name, o.IsPI(name), ref.IsPI(name))
			}
			if got, want := o.TFOSet(name), ref.TFOSet(name); !reflect.DeepEqual(got, want) {
				t.Errorf("TFOSet(%q): %v vs %v", name, got, want)
			}
		}
		for _, a := range signals {
			for _, b := range signals {
				if o.DependsOn(a, b) != ref.DependsOn(a, b) {
					t.Errorf("DependsOn(%q, %q): %v vs %v", a, b, o.DependsOn(a, b), ref.DependsOn(a, b))
				}
			}
		}
		if got, want := o.Fanouts(), ref.Fanouts(); !sameFanouts(got, want) {
			t.Errorf("Fanouts: %v vs %v", got, want)
		}
		oLv, oD := o.Levels()
		rLv, rD := ref.Levels()
		if oD != rD || !reflect.DeepEqual(oLv, rLv) {
			t.Errorf("Levels: (%v, %d) vs (%v, %d)", oLv, oD, rLv, rD)
		}
		if o.FactoredLits() != ref.FactoredLits() {
			t.Errorf("FactoredLits: %d vs %d", o.FactoredLits(), ref.FactoredLits())
		}
		for _, prefix := range []string{"t", "n", "i"} {
			if got, want := o.FreshName(prefix), ref.FreshName(prefix); got != want {
				t.Errorf("FreshName(%q): %q vs %q", prefix, got, want)
			}
		}
		if got, want := o.Clone().String(), ref.String(); got != want {
			t.Errorf("Clone diverged from mutated clone:\n%s\nvs:\n%s", got, want)
		}
	})
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

func sameFanouts(a, b map[string][]string) bool {
	keys := func(m map[string][]string) []string {
		var out []string
		//bdslint:ignore maporder keys collected then sorted before use
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	ka, kb := keys(a), keys(b)
	if !reflect.DeepEqual(ka, kb) {
		return false
	}
	for _, k := range ka {
		if !reflect.DeepEqual(a[k], b[k]) {
			return false
		}
	}
	return true
}
