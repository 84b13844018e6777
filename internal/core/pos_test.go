package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebraic"
	"repro/internal/bench"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/verify"
)

// posNetwork: f = (a+b)(c+d) in SOP, divisor d0 = a + b. POS division should
// find f = d0·(c+d) — impossible for SOP-form substitution since no cube of
// d0 is contained in a cube of f.
func posNetwork() *network.Network {
	nw := network.New("pos")
	for _, pi := range []string{"a", "b", "c", "d"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d0", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("f", []string{"a", "b", "c", "d"}, cube.ParseCover(4, "ac + ad + bc + bd"))
	nw.AddPO("f")
	nw.AddPO("d0")
	return nw
}

func TestPosDivideFactorsProduct(t *testing.T) {
	nw := posNetwork()
	res, ok := PosDivide(nw, "f", "d0", Extended)
	if !ok {
		t.Fatal("POS division failed")
	}
	if !res.POS {
		t.Error("result not marked POS")
	}
	after := nw.Clone()
	if err := after.ReplaceNodeFunction("f", res.Fanins, res.Cover); err != nil {
		t.Fatal(err)
	}
	after.NormalizeNode("f")
	if !verify.Equivalent(nw, after) {
		t.Fatal("POS division broke equivalence")
	}
	fn := after.Node("f")
	// f = y·(c + d): 3 factored literals, down from 4.
	if got := algebraic.FactorLits(fn.Cover); got > 3 {
		t.Errorf("fac lits = %d (%v over %v), want ≤ 3", got, fn.Cover, fn.Fanins)
	}
	if fn.FaninIndex("d0") < 0 {
		t.Error("divisor not used")
	}
	if fn.FaninIndex("a") >= 0 || fn.FaninIndex("b") >= 0 {
		t.Errorf("a/b literals should be gone: %v over %v", fn.Cover, fn.Fanins)
	}
}

func TestPosDivideWithRemainder(t *testing.T) {
	// f = (a+b+e)(c+d): POS division by d0 = a+b leaves sum term (…+e) in
	// place: f = (d0 + e)(c + d).
	nw := network.New("posr")
	for _, pi := range []string{"a", "b", "c", "d", "e"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d0", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	f := cube.ParseCover(5, "a + b + e").And(cube.ParseCover(5, "c + d"))
	nw.AddNode("f", []string{"a", "b", "c", "d", "e"}, f)
	nw.AddPO("f")
	nw.AddPO("d0")
	res, ok := PosDivide(nw, "f", "d0", Extended)
	if !ok {
		t.Fatal("POS division failed")
	}
	after := nw.Clone()
	if err := after.ReplaceNodeFunction("f", res.Fanins, res.Cover); err != nil {
		t.Fatal(err)
	}
	after.NormalizeNode("f")
	if !verify.Equivalent(nw, after) {
		t.Fatal("equivalence broken")
	}
	fn := after.Node("f")
	before := algebraic.FactorLits(f)
	if got := algebraic.FactorLits(fn.Cover); got >= before {
		t.Errorf("fac lits = %d, want < %d (%v over %v)", got, before, fn.Cover, fn.Fanins)
	}
}

func TestPosDivideRejectsUnrelated(t *testing.T) {
	nw := network.New("posu")
	for _, pi := range []string{"a", "b", "c", "d"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d0", []string{"c", "d"}, cube.ParseCover(2, "ab"))
	nw.AddNode("f", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddPO("f")
	nw.AddPO("d0")
	if res, ok := PosDivide(nw, "f", "d0", Extended); ok {
		// A structural division may exist; it must at least be sound.
		after := nw.Clone()
		if err := after.ReplaceNodeFunction("f", res.Fanins, res.Cover); err == nil {
			after.NormalizeNode("f")
			if !verify.Equivalent(nw, after) {
				t.Error("unsound POS division")
			}
		}
	}
}

func TestPropPosDivisionSound(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for trial := 0; trial < 40; trial++ {
		nw := randomDAG(r, 4, 5)
		names := nw.SortedNodeNames()
		if len(names) < 2 {
			continue
		}
		f := names[r.Intn(len(names))]
		d := names[r.Intn(len(names))]
		res, ok := PosDivide(nw, f, d, Extended)
		if !ok {
			continue
		}
		after := nw.Clone()
		if err := after.ReplaceNodeFunction(f, res.Fanins, res.Cover); err != nil {
			continue
		}
		after.NormalizeNode(f)
		if !verify.Equivalent(nw, after) {
			t.Fatalf("trial %d: POS division of %s by %s broke equivalence\nbefore: %safter: %s",
				trial, f, d, nw.String(), after.String())
		}
	}
}

// TestPOSFloorRefusesOnlyWhatCannotGain plans every POS candidate of the
// suite circuits with the literal floor and without it (scratch.noFloor):
// a plan the floor lets through must be the unfloored plan byte for byte,
// and a division the floor refuses must plan nothing or a plan without
// gain. Most POS divisions cannot gain, so the floor must refuse some.
func TestPOSFloorRefusesOnlyWhatCannotGain(t *testing.T) {
	opt := Options{Config: Basic, POS: true}
	sc, unfloored := newScratch(), newScratch()
	unfloored.noFloor = true
	trials, refused := 0, 0
	for _, name := range bench.Names() {
		nw := bench.Get(name)
		nc := newNodeCache(nw)
		for _, f := range nw.TopoOrder() {
			if nw.Node(f).Cover.IsZero() {
				continue
			}
			for _, c := range candidateDivisors(nw, nc, f, opt, nil) {
				if c.form != formPOS {
					continue
				}
				trials++
				got, gotOK := planPair(sc, nw, f, c, opt)
				want, wantOK := planPair(unfloored, nw, f, c, opt)
				if gotOK {
					if err := comparePlans(nw, got, gotOK, want, wantOK); err != nil {
						t.Fatalf("%s f=%s d=%s: the floored plan differs from the unfloored one: %v", name, f, c.name, err)
					}
					continue
				}
				if wantOK {
					refused++
					if want.gain > 0 {
						t.Fatalf("%s f=%s d=%s: the floor refused a division that gains %d", name, f, c.name, want.gain)
					}
				}
			}
		}
	}
	t.Logf("%d POS trials, %d refused by the floor", trials, refused)
	if refused == 0 {
		t.Fatalf("the floor refused none of %d POS trials", trials)
	}
}

// TestFloorAuditDetectsCorruptedFloor proves the floor audit is a live
// tripwire: with a seam that makes the floor refuse every POS division,
// Options.Audit must panic on a suite cell where a POS substitution
// commits, and the same cell must run clean without the seam.
func TestFloorAuditDetectsCorruptedFloor(t *testing.T) {
	opt := Options{Config: Basic, POS: true, Workers: 1}
	cell := ""
	for _, name := range bench.Names() {
		if Substitute(bench.Get(name), opt).POSSubstitutions > 0 {
			cell = name
			break
		}
	}
	if cell == "" {
		t.Fatal("no suite cell commits a POS substitution")
	}
	opt.Audit = true
	Substitute(bench.Get(cell), opt)

	defer func() { posFloorCorrupt = false }()
	posFloorCorrupt = true
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: Audit accepted a floor that refused a gaining POS division", cell)
		}
		if !strings.Contains(fmt.Sprint(r), "literal-floor audit") {
			t.Fatalf("%s: unexpected panic: %v", cell, r)
		}
	}()
	Substitute(bench.Get(cell), opt)
}
