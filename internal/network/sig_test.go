package network

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
)

// sigFromSimulate recomputes name's signature through the public Simulate
// path using the table's PI patterns — the reference the table must match.
func sigFromSimulate(nw *Network, name string) Signature {
	var out Signature
	for w := 0; w < SigWords; w++ {
		in := map[string]uint64{}
		for i, pi := range nw.PIs() {
			in[pi] = piPattern(i)[w]
		}
		out[w] = nw.Simulate(in)[name]
	}
	return out
}

func TestSigTableMatchesSimulate(t *testing.T) {
	nw := buildSmall()
	tab := nw.EnableSigs()
	for _, n := range nw.Nodes() {
		got, ok := tab.Sig(n.Name)
		if !ok {
			t.Fatalf("no signature for %s", n.Name)
		}
		if want := sigFromSimulate(nw, n.Name); got != want {
			t.Errorf("%s: sig %x, Simulate says %x", n.Name, got, want)
		}
	}
}

func TestSigStaleUntilRefresh(t *testing.T) {
	nw := buildSmall()
	tab := nw.EnableSigs()
	if err := nw.ReplaceNodeFunction("g", []string{"a", "b"}, cube.ParseCover(2, "a + b")); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.Sig("g"); ok {
		t.Error("Sig returned a stale signature for an edited node")
	}
	tab.Refresh()
	for _, name := range []string{"g", "f"} {
		got, ok := tab.Sig(name)
		if !ok {
			t.Fatalf("no signature for %s after Refresh", name)
		}
		if want := sigFromSimulate(nw, name); got != want {
			t.Errorf("%s after edit: sig %x, Simulate says %x", name, got, want)
		}
	}
}

func TestCloneDropsSigTable(t *testing.T) {
	nw := buildSmall()
	nw.EnableSigs()
	if c := nw.Clone(); c.Sigs() != nil {
		t.Error("Clone carried the signature table")
	}
	if nw.Sigs() == nil {
		t.Error("Clone detached the original's signature table")
	}
}

// TestSigTableIncrementalMatchesScratch performs random committed edits on a
// random network with a Refresh after each, then compares every signature
// against a table built from scratch: a table refreshed across a sequence
// of edits must be indistinguishable from a fresh one.
func TestSigTableIncrementalMatchesScratch(t *testing.T) {
	r := rand.New(rand.NewSource(505))
	for trial := 0; trial < 25; trial++ {
		nw := randomNetwork(r, 4, 6)
		if trial%2 == 1 {
			nw.EnableFanouts() // edits also maintain the live lists
		}
		tab := nw.EnableSigs()
		names := func() []string {
			var out []string
			for _, n := range nw.Nodes() {
				out = append(out, n.Name)
			}
			return out
		}

		for edit := 0; edit < 6; edit++ {
			switch r.Intn(3) {
			case 0: // rewrite a node's cover over its existing fanins
				ns := names()
				n := nw.Node(ns[r.Intn(len(ns))])
				k := len(n.Fanins)
				cov := cube.NewCover(k)
				for c := 0; c < 1+r.Intn(2); c++ {
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
				if err := nw.ReplaceNodeFunction(n.Name, n.Fanins, cov); err != nil {
					t.Fatal(err)
				}
			case 1: // add a fresh node over random existing signals
				sigs := append(append([]string{}, nw.PIs()...), names()...)
				perm := r.Perm(len(sigs))[:2]
				fi := []string{sigs[perm[0]], sigs[perm[1]]}
				nw.AddNode(nw.FreshName("x"), fi, cube.ParseCover(2, "ab'"))
			case 2: // redirect one fanin edge
				ns := names()
				n := nw.Node(ns[r.Intn(len(ns))])
				if len(n.Fanins) == 0 {
					continue
				}
				old := n.Fanins[r.Intn(len(n.Fanins))]
				pis := nw.PIs()
				nw.ReplaceFaninSignal(n.Name, old, pis[r.Intn(len(pis))], r.Intn(2) == 1)
			}
			tab.Refresh()
		}

		// From-scratch reference on the same (now edited) network.
		nw.DisableSigs()
		fresh := nw.EnableSigs()
		for _, n := range nw.Nodes() {
			want, wok := fresh.Sig(n.Name)
			got, gok := tab.Sig(n.Name)
			if wok != gok || got != want {
				t.Fatalf("trial %d: %s: incremental %x (ok=%v), scratch %x (ok=%v)",
					trial, n.Name, got, gok, want, wok)
			}
		}
	}
}
