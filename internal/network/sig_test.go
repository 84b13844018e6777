package network

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
)

// sigFromSimulate recomputes name's signature through the public Simulate
// path using the table's PI patterns — the reference the table must match.
func sigFromSimulate(t *SigTable, nw *Network, name string) Signature {
	var out Signature
	for w := 0; w < SigWords; w++ {
		in := map[string]uint64{}
		for i, pi := range nw.PIs() {
			in[pi] = t.piPat[i][w]
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
		if want := sigFromSimulate(tab, nw, n.Name); got != want {
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
		if want := sigFromSimulate(tab, nw, name); got != want {
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
// random network with incremental Refresh after each, then compares every
// signature against a from-scratch table: the incremental dirty-closure
// recomputation must be indistinguishable from full recomputation.
func TestSigTableIncrementalMatchesScratch(t *testing.T) {
	r := rand.New(rand.NewSource(505))
	for trial := 0; trial < 25; trial++ {
		nw := randomNetwork(r, 4, 6)
		if trial%2 == 1 {
			nw.EnableFanouts() // Refresh walks the live lists instead of a snapshot
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

func TestCubeSig(t *testing.T) {
	nw := buildSmall()
	tab := nw.EnableSigs()
	a, _ := tab.Sig("a")
	b, _ := tab.Sig("b")
	c := cube.New(2)
	c.Set(0, cube.Pos)
	c.Set(1, cube.Neg)
	got, ok := tab.CubeSig(c, []string{"a", "b"})
	if !ok {
		t.Fatal("CubeSig failed on clean table")
	}
	if want := a.And(b.Not()); got != want {
		t.Errorf("CubeSig = %x, want %x", got, want)
	}
}

func TestSignatureOps(t *testing.T) {
	x := Signature{0b1100, 1}
	y := Signature{0b0100, 1}
	if !x.Covers(y) || y.Covers(x) {
		t.Error("Covers wrong")
	}
	if !y.Disjoint(Signature{0b0011, 0}) {
		t.Error("Disjoint wrong")
	}
	if y.Disjoint(x) {
		t.Error("Disjoint wrong on overlap")
	}
	if !(Signature{}).IsZero() || x.IsZero() {
		t.Error("IsZero wrong")
	}
	if AllOnes().And(x) != x {
		t.Error("And/AllOnes wrong")
	}
	if x.Not().Not() != x {
		t.Error("Not wrong")
	}
}

// obsCareReference recomputes ObsCare by brute force: simulate the whole
// network in topological order twice per pattern word — once as is, once
// with the signal's value inverted — and OR the differences over every
// primary output.
func obsCareReference(t *SigTable, nw *Network, id SigID) Signature {
	var care Signature
	for w := 0; w < SigWords; w++ {
		plain := make([]uint64, nw.NumSigs())
		flip := make([]uint64, nw.NumSigs())
		for i, pi := range nw.PIIDs() {
			plain[pi] = t.piPat[i][w]
			flip[pi] = t.piPat[i][w]
		}
		if nw.IsPIID(id) {
			flip[id] = ^flip[id]
		}
		for _, n := range nw.TopoOrderIDs() {
			fids := nw.FaninIDsOf(n)
			plain[n] = evalCoverIDs(nw.NodeByID(n).Cover, fids, plain)
			flip[n] = evalCoverIDs(nw.NodeByID(n).Cover, fids, flip)
			if n == id {
				flip[n] = ^flip[n]
			}
		}
		for _, po := range nw.POIDs() {
			care[w] |= plain[po] ^ flip[po]
		}
	}
	return care
}

// TestObsCareMatchesReference checks the cone-local ObsCare against the
// whole-network brute force for every signal of random multi-output
// networks, calling it back to back on one table (its walk scratch must
// come back clean after every call), with live fanout lists on and off.
func TestObsCareMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		nw := randomNetwork(r, 4, 10)
		for _, n := range nw.Nodes()[:4] {
			if !nw.IsPO(n.Name) {
				nw.AddPO(n.Name)
			}
		}
		if trial%2 == 0 {
			nw.EnableFanouts()
		}
		tab := nw.EnableSigs()
		for pass := 0; pass < 2; pass++ {
			for id := 0; id < nw.NumSigs(); id++ {
				name := nw.SigName(SigID(id))
				got, ok := tab.ObsCare(name)
				if !ok {
					t.Fatalf("trial %d: ObsCare(%s) unavailable on a clean table", trial, name)
				}
				if want := obsCareReference(tab, nw, SigID(id)); got != want {
					t.Fatalf("trial %d pass %d: ObsCare(%s) = %x, brute force %x", trial, pass, name, got, want)
				}
			}
		}
	}
}
