package core

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/verify"
)

// extNetwork builds the Section-IV-style scenario: the divisor h = a + b + e
// does not divide f = a + bc + bd as a whole, but its core a + b does.
func extNetwork() *network.Network {
	nw := network.New("ext")
	for _, pi := range []string{"a", "b", "c", "d", "e"} {
		nw.AddPI(pi)
	}
	nw.AddNode("h", []string{"a", "b", "e"}, cube.ParseCover(3, "a + b + c"))
	nw.AddNode("f", []string{"a", "b", "c", "d"}, cube.ParseCover(4, "a + bc + bd"))
	nw.AddPO("f")
	nw.AddPO("h")
	return nw
}

func TestVoteTableFig3(t *testing.T) {
	nw := extNetwork()
	votes, ok := VoteTable(nw, "f", "h", Extended)
	if !ok {
		t.Fatal("vote table failed")
	}
	fn := nw.Node("f")
	// Index h's cubes: 0 = a, 1 = b, 2 = e (cover order of ParseCover).
	hn := nw.Node("h")
	cubeIdxOf := func(s string) int {
		for i, c := range hn.Cover.Cubes {
			local := make(map[int]cube.Phase)
			for _, v := range c.Lits() {
				local[v] = c.Get(v)
			}
			if c.NumLits() == 1 {
				v := c.Lits()[0]
				if hn.Fanins[v] == s && c.Get(v) == cube.Pos {
					return i
				}
			}
		}
		return -1
	}
	aIdx, bIdx := cubeIdxOf("a"), cubeIdxOf("b")
	if aIdx < 0 || bIdx < 0 {
		t.Fatal("could not locate divisor cubes")
	}

	// Find the vote of wire b in cube bc of f.
	var found bool
	for _, v := range votes {
		c := fn.Cover.Cubes[v.CubeIdx]
		if c.NumLits() == 2 && fn.Fanins[v.Var] == "b" {
			found = true
			// Implications: b=0 kills h's b-cube; sibling cube a=0 kills
			// h's a-cube. Candidate must contain both.
			if v.Candidate&(1<<aIdx) == 0 || v.Candidate&(1<<bIdx) == 0 {
				t.Errorf("wire b candidate = %b, want bits %d and %d", v.Candidate, aIdx, bIdx)
			}
			if !v.Valid {
				t.Error("wire b vote should be valid (cube b ⊆ cube bc)")
			}
		}
		// Wire c in cube bc: candidate {a-cube} is not an SOS of bc → row
		// must be deleted (Valid = false), mirroring Table I(b).
		if c.NumLits() == 2 && fn.Fanins[v.Var] == "c" {
			if v.Valid {
				t.Errorf("wire c vote should be invalid, candidate=%b", v.Candidate)
			}
		}
	}
	if !found {
		t.Fatal("wire b vote missing")
	}
}

func TestSelectCorePicksSharedIntersection(t *testing.T) {
	nw := extNetwork()
	votes, ok := VoteTable(nw, "f", "h", Extended)
	if !ok {
		t.Fatal("votes failed")
	}
	fn, hn := nw.Node("f"), nw.Node("h")
	union := appendUnion(nil, fn.Fanins, hn.Fanins)
	fU := network.RemapCover(fn.Cover, fn.Fanins, union)
	hU := network.RemapCover(hn.Cover, hn.Fanins, union)
	mask, score := SelectCore(votes, hU.Cubes, fU)
	if mask == 0 {
		t.Fatal("no core selected")
	}
	if score < 2 {
		t.Errorf("score = %d, want ≥ 2 (both b wires)", score)
	}
}

func TestExtendedDivideDecomposes(t *testing.T) {
	nw := extNetwork()
	work, res, dec, ok := ExtendedDivide(nw, "f", "h", Extended)
	if !ok {
		t.Fatal("extended division failed")
	}
	if !verify.Equivalent(nw, work) {
		t.Fatalf("extended division broke equivalence:\n%s", work.String())
	}
	if dec == nil {
		t.Fatal("expected a divisor decomposition")
	}
	core := work.Node(dec.CoreName)
	if core == nil {
		t.Fatal("core node missing")
	}
	// Core should be a + b (2 cubes).
	if core.Cover.NumCubes() != 2 {
		t.Errorf("core = %v", core.Cover)
	}
	// h must now reference the core.
	if work.Node("h").FaninIndex(dec.CoreName) < 0 {
		t.Error("divisor does not use its core")
	}
	// f should use the core divisor: f = y(a + c + d) with b literals gone.
	fn := work.Node("f")
	if fn.FaninIndex(dec.CoreName) < 0 {
		t.Error("dividend does not use the core")
	}
	if res.WiresRemoved < 2 {
		t.Errorf("wires removed = %d, want ≥ 2", res.WiresRemoved)
	}
	if fn.FaninIndex("b") >= 0 {
		t.Errorf("b literal should be gone: %v over %v", fn.Cover, fn.Fanins)
	}
}

func TestExtendedDivideFullMaskIsBasic(t *testing.T) {
	// Divisor g = ab exactly divides f: the core is the whole divisor and
	// no decomposition happens.
	nw := fig2Network()
	work, _, dec, ok := ExtendedDivide(nw, "f", "g", Extended)
	if !ok {
		t.Fatal("extended division failed")
	}
	if dec != nil {
		t.Error("no decomposition expected when the core is the whole divisor")
	}
	if !verify.Equivalent(nw, work) {
		t.Fatal("equivalence broken")
	}
}

func TestPropExtendedDivisionSound(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 40; trial++ {
		nw := randomDAG(r, 4, 5)
		names := nw.SortedNodeNames()
		if len(names) < 2 {
			continue
		}
		f := names[r.Intn(len(names))]
		d := names[r.Intn(len(names))]
		for _, cfg := range []Config{Extended, ExtendedGDC} {
			work, _, _, ok := ExtendedDivide(nw, f, d, cfg)
			if !ok {
				continue
			}
			if !verify.Equivalent(nw, work) {
				t.Fatalf("trial %d cfg %v: extended division of %s by %s broke equivalence\nbefore: %safter: %s",
					trial, cfg, f, d, nw.String(), work.String())
			}
		}
	}
}

// TestSubstituteReaddsRemovedCoreName is the engine-level check that a
// node added under a reused name is listed once. An extended-division
// commit adds its core node under the name FreshName picks, and FreshName
// hands out the names of removed nodes; the commit (Network.Install of the
// plan's added core) then re-adds that name to the live network. The network must stay Check-clean
// (Options.Audit checks after every commit) and end up exactly as if the
// name had never been used before.
func TestSubstituteReaddsRemovedCoreName(t *testing.T) {
	opt := Options{Config: Extended, Audit: true}
	fresh := bench.Get("pla_b")
	if st := Substitute(fresh, opt); st.Decompositions == 0 || fresh.Node("bdc0") == nil {
		t.Fatal("pla_b no longer commits an extended decomposition with core bdc0")
	}
	nw := bench.Get("pla_b")
	pis := nw.PIs()
	nw.AddNode("bdc0", pis[:2], cube.ParseCover(2, "ab"))
	nw.RemoveNode("bdc0")
	Substitute(nw, opt)
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if got, want := blif.ToString(nw), blif.ToString(fresh); got != want {
		t.Fatalf("re-adding a removed name changed the result\ngot:\n%s\nwant:\n%s", got, want)
	}
}
