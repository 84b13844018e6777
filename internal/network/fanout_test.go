package network

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cube"
)

// sameIDSet reports whether two fanout lists hold the same IDs.
func sameIDSet(a, b []SigID) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]SigID(nil), a...)
	y := append([]SigID(nil), b...)
	sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	sort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// assertLiveFanouts checks the live lists against a fresh FanoutIDs, both
// through Check and directly through FanoutsOf.
func assertLiveFanouts(t *testing.T, nw *Network, step string) {
	t.Helper()
	if err := nw.Check(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	want := nw.FanoutIDs()
	for id := range want {
		if got := nw.FanoutsOf(SigID(id)); !sameIDSet(got, want[id]) {
			t.Fatalf("%s: FanoutsOf(%s) = %v, FanoutIDs has %v", step, nw.SigName(SigID(id)), got, want[id])
		}
	}
}

func TestFanoutsOfWithoutLiveLists(t *testing.T) {
	nw := randomNetwork(rand.New(rand.NewSource(3)), 4, 10)
	want := nw.FanoutIDs()
	for id := range want {
		got := nw.FanoutsOf(SigID(id))
		if len(got) != len(want[id]) {
			t.Fatalf("FanoutsOf(%d) = %v, want %v", id, got, want[id])
		}
		for i := range got {
			if got[i] != want[id][i] {
				t.Fatalf("FanoutsOf(%d) = %v, want creation order %v", id, got, want[id])
			}
		}
	}
}

// TestLiveFanoutsTrackEdits drives every mutator the engine and the script
// flows use — node rewrites, fanin redirection, composition, additions,
// removals, sweeping, elimination, overlay commits and CopyFrom — over
// random networks with live fanout lists attached, and audits the lists
// after every edit.
func TestLiveFanoutsTrackEdits(t *testing.T) {
	r := rand.New(rand.NewSource(909))
	reused := 0
	for trial := 0; trial < 30; trial++ {
		nw := randomNetwork(r, 4, 8)
		for _, n := range nw.Nodes()[:len(nw.Nodes())/2] {
			if !nw.IsPO(n.Name) {
				nw.AddPO(n.Name)
			}
		}
		nw.EnableFanouts()
		assertLiveFanouts(t, nw, "enable")
		pick := func() *Node {
			ns := nw.Nodes()
			return ns[r.Intn(len(ns))]
		}
		withFanins := func() *Node {
			var ns []*Node
			for _, n := range nw.Nodes() {
				if len(n.Fanins) > 0 {
					ns = append(ns, n)
				}
			}
			if len(ns) == 0 {
				return nil
			}
			return ns[r.Intn(len(ns))]
		}
		signals := func() []string {
			out := append([]string(nil), nw.PIs()...)
			for _, n := range nw.Nodes() {
				out = append(out, n.Name)
			}
			return out
		}
		// Fresh names share one prefix per mutator, so FreshName hands out
		// the names of nodes a Sweep removed and additions re-add them.
		for edit := 0; edit < 12 && nw.NumNodes() > 1; edit++ {
			var step string
			switch r.Intn(8) {
			case 0:
				step = "ReplaceNodeFunction"
				n := pick()
				sigs := signals()
				a, b := sigs[r.Intn(len(sigs))], sigs[r.Intn(len(sigs))]
				if a != b && a != n.Name && b != n.Name {
					_ = nw.ReplaceNodeFunction(n.Name, []string{a, b}, cube.ParseCover(2, "ab + a'b'"))
				}
			case 1:
				step = "ReplaceFaninSignal"
				n := withFanins()
				if n == nil {
					continue
				}
				pis := nw.PIs()
				nw.ReplaceFaninSignal(n.Name, n.Fanins[r.Intn(len(n.Fanins))], pis[r.Intn(len(pis))], r.Intn(2) == 1)
			case 2:
				step = "Compose"
				n := withFanins()
				if n == nil {
					continue
				}
				nw.Compose(n.Name, n.Fanins[r.Intn(len(n.Fanins))])
			case 3:
				step = "AddNode"
				sigs := signals()
				perm := r.Perm(len(sigs))
				name := nw.FreshName("x")
				if _, seen := nw.sym.Lookup(name); seen {
					reused++
				}
				nw.AddNode(name, []string{sigs[perm[0]], sigs[perm[1]]}, cube.ParseCover(2, "a + b'"))
			case 4:
				step = "NormalizeNode"
				n := withFanins()
				if n == nil {
					continue
				}
				cov := cube.ParseCover(len(n.Fanins), "a")
				if err := nw.ReplaceNodeFunction(n.Name, n.Fanins, cov); err == nil {
					nw.NormalizeNode(n.Name)
				}
			case 5:
				step = "Sweep"
				nw.Sweep()
			case 6:
				step = "overlay ApplyTo"
				ov := NewOverlay(nw)
				n := ov.Node(pick().Name)
				core := ov.FreshName("ov")
				if _, seen := nw.sym.Lookup(core); seen {
					reused++
				}
				ov.AddNode(core, n.Fanins, n.Cover.Clone())
				if err := ov.ReplaceNodeFunction(n.Name, []string{core}, cube.ParseCover(1, "a")); err == nil {
					if err := ov.ApplyTo(nw); err != nil {
						t.Fatal(err)
					}
				}
			case 7:
				step = "CopyFrom"
				c := nw.Clone()
				if c.fanouts != nil {
					t.Fatal("Clone carried the live fanout lists")
				}
				nw.CopyFrom(c)
			}
			assertLiveFanouts(t, nw, step)
		}
		nw.Eliminate(0)
		assertLiveFanouts(t, nw, "Eliminate")
	}
	if reused == 0 {
		t.Error("no addition re-added a removed name")
	}
}
