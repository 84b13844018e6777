package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/algebraic"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/verify"
)

func TestIsSOS(t *testing.T) {
	// d = ab + c is an SOS of f = abc + abd + ce: every cube of f is
	// contained by a cube of d.
	f := cube.ParseCover(5, "abc + abd + ce")
	d := cube.ParseCover(5, "ab + c")
	if !IsSOS(d, f) {
		t.Error("d should be SOS of f")
	}
	// Adding cubes to the SOS keeps it an SOS (paper's remark).
	d2 := cube.ParseCover(5, "ab + c + de")
	if !IsSOS(d2, f) {
		t.Error("supersets of an SOS are SOS")
	}
	// d = ab alone is not (cube ce is not contained).
	if IsSOS(cube.ParseCover(5, "ab"), f) {
		t.Error("ab is not an SOS of f")
	}
}

func TestLemma1Property(t *testing.T) {
	// If g is an SOS of f then f·g = f.
	r := rand.New(rand.NewSource(41))
	const n = 5
	prop := func(seed int64) bool {
		r.Seed(seed)
		f := randomCover(r, n, 5)
		g := randomCover(r, n, 5)
		if !IsSOS(g, f) {
			return true // vacuous
		}
		return f.And(g).Equivalent(f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLemma2Property(t *testing.T) {
	// POS dual via complements: if ḡ is SOS of f̄ then f + g = f.
	r := rand.New(rand.NewSource(42))
	const n = 5
	prop := func(seed int64) bool {
		r.Seed(seed)
		f := randomCover(r, n, 4)
		g := randomCover(r, n, 4)
		fc, gc := f.Complement(), g.Complement()
		if !IsPOS(gc, fc) {
			return true
		}
		return f.Or(g).Equivalent(f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSplitSOS(t *testing.T) {
	f := cube.ParseCover(5, "abc + abd + ce + e")
	d := cube.ParseCover(5, "ab")
	q, r := SplitSOS(f, d)
	if q.NumCubes() != 2 {
		t.Errorf("quotient part = %v", q)
	}
	if r.NumCubes() != 2 {
		t.Errorf("remainder = %v", r)
	}
}

func randomCover(r *rand.Rand, n, maxCubes int) cube.Cover {
	f := cube.NewCover(n)
	k := r.Intn(maxCubes) + 1
	for i := 0; i < k; i++ {
		c := cube.New(n)
		for v := 0; v < n; v++ {
			switch r.Intn(3) {
			case 0:
				c.Set(v, cube.Pos)
			case 1:
				c.Set(v, cube.Neg)
			}
		}
		f.Add(c)
	}
	return f
}

// fig2Network builds the Fig. 2 scenario: divisor node g = ab, dividend
// f = abc + abd + e.
func fig2Network() *network.Network {
	nw := network.New("fig2")
	for _, pi := range []string{"a", "b", "c", "d", "e"} {
		nw.AddPI(pi)
	}
	nw.AddNode("g", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("f", []string{"a", "b", "c", "d", "e"}, cube.ParseCover(5, "abc + abd + e"))
	nw.AddPO("f")
	nw.AddPO("g")
	return nw
}

func TestBasicDivisionFig2(t *testing.T) {
	nw := fig2Network()
	res, ok := BasicDivide(nw, "f", "g", Basic)
	if !ok {
		t.Fatal("division failed")
	}
	// Expected: f = g·(c + d) + e — quotient c + d, remainder e, with the
	// a and b literals removed by RAR (4 removals: a,b in two cubes).
	if res.WiresRemoved < 4 {
		t.Errorf("wires removed = %d, want ≥ 4", res.WiresRemoved)
	}
	after := nw.Clone()
	if err := after.ReplaceNodeFunction("f", res.Fanins, res.Cover); err != nil {
		t.Fatal(err)
	}
	after.NormalizeNode("f")
	if !verify.Equivalent(nw, after) {
		t.Fatal("division changed the function")
	}
	fn := after.Node("f")
	// Result should be y(c+d) + e: 4 factored literals (5 in SOP form).
	if got := algebraic.FactorLits(fn.Cover); got != 4 {
		t.Errorf("result fac lits = %d (%v over %v), want 4", got, fn.Cover, fn.Fanins)
	}
	if fn.FaninIndex("g") < 0 {
		t.Error("divisor not among fanins")
	}
}

func TestBasicDivisionBooleanPower(t *testing.T) {
	// f = a + bc divided by d = a + b: Boolean quotient a + c while the
	// algebraic quotient is zero (paper, Section I).
	nw := network.New("boolwin")
	for _, pi := range []string{"a", "b", "c"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("f", []string{"a", "b", "c"}, cube.ParseCover(3, "a + bc"))
	nw.AddPO("f")
	nw.AddPO("d")
	res, ok := BasicDivide(nw, "f", "d", Basic)
	if !ok {
		t.Fatal("division failed")
	}
	if res.WiresRemoved < 1 {
		t.Error("expected the b literal to be removed")
	}
	after := nw.Clone()
	if err := after.ReplaceNodeFunction("f", res.Fanins, res.Cover); err != nil {
		t.Fatal(err)
	}
	after.NormalizeNode("f")
	if !verify.Equivalent(nw, after) {
		t.Fatal("function changed")
	}
	// f = y·(a + c): 3 SOP literals, quotient two single-literal cubes.
	if res.Quotient.NumCubes() != 2 || res.Quotient.NumLits() != 2 {
		t.Errorf("quotient = %v", res.Quotient)
	}
	if !res.Remainder.IsZero() {
		t.Errorf("remainder = %v, want 0", res.Remainder)
	}
}

func TestBasicDivisionConsensusCube(t *testing.T) {
	// f = ab + a'c + bc with d = b + c: RAR deletes the consensus cube bc
	// entirely (cube-level removal), which algebraic division cannot see.
	nw := network.New("consensus")
	for _, pi := range []string{"a", "b", "c"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d", []string{"b", "c"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("f", []string{"a", "b", "c"}, cube.ParseCover(3, "ab + a'c + bc"))
	nw.AddPO("f")
	nw.AddPO("d")
	res, ok := BasicDivide(nw, "f", "d", Basic)
	if !ok {
		t.Fatal("division failed")
	}
	after := nw.Clone()
	if err := after.ReplaceNodeFunction("f", res.Fanins, res.Cover); err != nil {
		t.Fatal(err)
	}
	after.NormalizeNode("f")
	if !verify.Equivalent(nw, after) {
		t.Fatal("function changed")
	}
	if res.Cover.NumCubes() > 2 {
		t.Errorf("consensus cube not removed: %v", res.Cover)
	}
}

func TestBasicDivisionRejectsCycle(t *testing.T) {
	nw := network.New("cyc")
	nw.AddPI("a")
	nw.AddPI("b")
	nw.AddNode("f", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("g", []string{"f", "a"}, cube.ParseCover(2, "a + b"))
	nw.AddPO("g")
	if _, ok := BasicDivide(nw, "f", "g", Basic); ok {
		t.Error("cycle-creating division accepted")
	}
}

func TestBasicDivisionNoContainment(t *testing.T) {
	// No cube of d is contained in any cube of f: division must fail.
	nw := network.New("nc")
	for _, pi := range []string{"a", "b", "c"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d", []string{"a", "b"}, cube.ParseCover(2, "ab'"))
	nw.AddNode("f", []string{"a", "b", "c"}, cube.ParseCover(3, "ab + c"))
	nw.AddPO("f")
	nw.AddPO("d")
	if _, ok := BasicDivide(nw, "f", "d", Basic); ok {
		t.Error("division should fail without containment")
	}
}

func TestPropBasicDivisionSound(t *testing.T) {
	// Fuzz: random network, random (f, d) attempt; whenever division
	// succeeds the replacement must preserve all PO functions.
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		nw := randomDAG(r, 4, 5)
		names := nw.SortedNodeNames()
		if len(names) < 2 {
			continue
		}
		f := names[r.Intn(len(names))]
		d := names[r.Intn(len(names))]
		for _, cfg := range []Config{Basic, ExtendedGDC} {
			res, ok := BasicDivide(nw, f, d, cfg)
			if !ok {
				continue
			}
			after := nw.Clone()
			if err := after.ReplaceNodeFunction(f, res.Fanins, res.Cover); err != nil {
				continue
			}
			after.NormalizeNode(f)
			if !verify.Equivalent(nw, after) {
				t.Fatalf("trial %d cfg %v: division of %s by %s broke equivalence\nbefore: %snow: %s",
					trial, cfg, f, d, nw.String(), after.String())
			}
		}
	}
}

// randomDAG builds a random multilevel network where every node is a PO (so
// every node function matters for equivalence).
func randomDAG(r *rand.Rand, nPI, nNode int) *network.Network {
	nw := network.New("rand")
	var signals []string
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
			nLit := 0
			for v := 0; v < k; v++ {
				switch r.Intn(3) {
				case 0:
					cb.Set(v, cube.Pos)
					nLit++
				case 1:
					cb.Set(v, cube.Neg)
					nLit++
				}
			}
			if nLit > 0 {
				cov.Add(cb)
			}
		}
		if cov.IsZero() {
			c := cube.New(k)
			c.Set(0, cube.Pos)
			cov.Add(c)
		}
		name := nw.FreshName("n")
		nw.AddNode(name, fanins, cov)
		signals = append(signals, name)
		nw.AddPO(name)
	}
	return nw
}

// TestPropBasicSubsumesAlgebraic checks the paper's power claim pairwise:
// whenever algebraic (weak) division of f by d yields a rewrite, the RAR
// basic division achieves at least the same factored-literal gain (the RAR
// quotient removes at least the divisor-cube literals algebra removes).
func TestPropBasicSubsumesAlgebraic(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	checked := 0
	for trial := 0; trial < 150 && checked < 60; trial++ {
		// Build a pair that divides by construction: d random, f = q·d + rem
		// expanded into SOP over the PIs.
		nw := network.New("div")
		for _, pi := range []string{"a", "b", "c", "d", "e", "f"} {
			nw.AddPI(pi)
		}
		dCov := randomCover(r, 6, 2).SCC()
		if dCov.IsZero() {
			continue
		}
		qCov := randomCover(r, 6, 2)
		rCov := randomCover(r, 6, 2)
		fCov := qCov.And(dCov).Or(rCov).SCC()
		if fCov.IsZero() || fCov.NumCubes() == 1 && fCov.Cubes[0].IsUniverse() {
			continue
		}
		pis := []string{"a", "b", "c", "d", "e", "f"}
		nw.AddNode("dv", pis, dCov)
		nw.AddNode("fn", pis, fCov)
		nw.AddPO("dv")
		nw.AddPO("fn")
		f, d := "fn", "dv"
		fn, dn := nw.Node(f), nw.Node(d)
		if dn.Cover.IsZero() || (dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse()) {
			continue
		}
		// Algebraic attempt (positive phase).
		union := appendUnion(nil, fn.Fanins, dn.Fanins)
		fU := network.RemapCover(fn.Cover, fn.Fanins, union)
		dU := network.RemapCover(dn.Cover, dn.Fanins, union)
		q, rem := algebraic.WeakDivide(fU, dU)
		if q.IsZero() {
			continue
		}
		// Assemble the algebraic rewrite's factored cost.
		space := append([]string(nil), union...)
		yIdx := indexOf(space, d)
		if yIdx < 0 {
			yIdx = len(space)
			space = append(space, d)
		}
		out := cube.NewCover(len(space))
		okBuild := true
		for _, c := range q.Cubes {
			k := cube.New(len(space))
			for _, v := range c.Lits() {
				k.Set(v, c.Get(v))
			}
			if p := k.Get(yIdx); p != cube.Free && p != cube.Pos {
				okBuild = false
				break
			}
			k.Set(yIdx, cube.Pos)
			out.Cubes = append(out.Cubes, k)
		}
		if !okBuild {
			continue
		}
		for _, c := range rem.Cubes {
			k := cube.New(len(space))
			for _, v := range c.Lits() {
				k.Set(v, c.Get(v))
			}
			out.Cubes = append(out.Cubes, k)
		}
		algCost := algebraic.FactorLits(out.SCC())

		res, ok := BasicDivide(nw, f, d, Basic)
		if !ok {
			t.Fatalf("trial %d: algebraic divides %s by %s but RAR basic does not", trial, f, d)
		}
		rarCost := algebraic.FactorLits(res.Cover)
		if rarCost > algCost {
			t.Errorf("trial %d: RAR cost %d worse than algebraic %d for %s ÷ %s\n%s",
				trial, rarCost, algCost, f, d, nw.String())
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no algebraic divisions found in the sample")
	}
	t.Logf("checked %d algebraically divisible pairs", checked)
}

// TestDivisionFormStructural checks that the result of a division is
// literally the assembled q·y + r form the paper produces.
func TestDivisionFormStructural(t *testing.T) {
	nw := fig2Network()
	res, ok := BasicDivide(nw, "f", "g", Basic)
	if !ok {
		t.Fatal("division failed")
	}
	yIdx := indexOf(res.Fanins, "g")
	if yIdx < 0 {
		t.Fatal("divisor not in fanins")
	}
	rebuilt := cube.NewCover(len(res.Fanins))
	for _, c := range res.Quotient.Cubes {
		k := c.Clone()
		k.Set(yIdx, cube.Pos)
		rebuilt.Cubes = append(rebuilt.Cubes, k)
	}
	rebuilt.Cubes = append(rebuilt.Cubes, res.Remainder.Cubes...)
	if !rebuilt.Equivalent(res.Cover) {
		t.Errorf("cover %v is not quotient·y + remainder (%v, %v)",
			res.Cover, res.Quotient, res.Remainder)
	}
}
