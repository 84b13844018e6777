package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blif"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/verify"
)

// gainNetwork: substitution of g = ab into f = abc + abd + e has a positive
// factored-literal gain (5 → 4).
func gainNetwork() *network.Network {
	nw := network.New("gain")
	for _, pi := range []string{"a", "b", "c", "d", "e"} {
		nw.AddPI(pi)
	}
	nw.AddNode("g", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("f", []string{"a", "b", "c", "d", "e"}, cube.ParseCover(5, "abc + abd + e"))
	nw.AddPO("f")
	nw.AddPO("g")
	return nw
}

func TestSubstituteBasicCommits(t *testing.T) {
	nw := gainNetwork()
	ref := nw.Clone()
	before := nw.FactoredLits()
	st := Substitute(nw, Options{Config: Basic})
	if st.Substitutions < 1 {
		t.Fatalf("no substitutions: %+v", st)
	}
	if !verify.Equivalent(ref, nw) {
		t.Fatal("substitution broke equivalence")
	}
	if nw.FactoredLits() >= before {
		t.Errorf("lits %d → %d, want a reduction", before, nw.FactoredLits())
	}
	if nw.Node("f").FaninIndex("g") < 0 {
		t.Error("f does not use g")
	}
}

func TestSubstituteRejectsZeroGain(t *testing.T) {
	// f = a + bc with d = a + b: division exists (quotient a + c) but the
	// factored-literal count does not drop (3 → 3), so nothing commits.
	nw := network.New("zero")
	for _, pi := range []string{"a", "b", "c"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("f", []string{"a", "b", "c"}, cube.ParseCover(3, "a + bc"))
	nw.AddPO("f")
	nw.AddPO("d")
	st := Substitute(nw, Options{Config: Basic})
	if st.Substitutions != 0 {
		t.Errorf("zero-gain substitution committed: %+v, f = %v", st, nw.Node("f").Cover)
	}
}

func TestSubstitutePOSCandidateOfferedAndCommitSound(t *testing.T) {
	// On f = (a+b)(c+d) with divisor d0 = a+b, both the SOP and the POS
	// forms of the division apply and reach the same y(c+d) result; the
	// driver must offer the POS candidate and commit a sound substitution
	// (the SOP form wins the race, which is fine — the forms converge).
	nw := posNetwork()
	cc := newComplCache(DefaultMaxComplementCubes)
	sigs := newSigCache(nw)
	cands := candidateDivisors(nw, sigs, cc, "f", Options{Config: Basic, POS: true}, nil)
	foundPOS := false
	for _, c := range cands {
		if c.name == "d0" && c.pos {
			foundPOS = true
		}
	}
	if !foundPOS {
		t.Error("POS candidate not offered")
	}

	ref := nw.Clone()
	st := Substitute(nw, Options{Config: Basic, POS: true})
	if st.Substitutions < 1 {
		t.Fatalf("no substitution: %+v", st)
	}
	if !verify.Equivalent(ref, nw) {
		t.Fatal("equivalence broken")
	}
	if nw.Node("f").FaninIndex("d0") < 0 {
		t.Error("f does not use d0")
	}
}

func TestSubstitutePOSOnlyPath(t *testing.T) {
	// Force the POS path by running tryPair with pos=true directly on the
	// product-form network; the commit must be sound and use the divisor.
	nw := posNetwork()
	ref := nw.Clone()
	cc := newComplCache(DefaultMaxComplementCubes)
	sigs := newSigCache(nw)
	var st Stats
	if !tryPair(nw, "f", candidate{name: "d0", pos: true}, Options{Config: Basic, POS: true}, cc, sigs, &st) {
		t.Fatal("POS tryPair did not commit")
	}
	if st.POSSubstitutions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !verify.Equivalent(ref, nw) {
		t.Fatal("equivalence broken")
	}
	if nw.Node("f").FaninIndex("d0") < 0 {
		t.Error("f does not use d0")
	}
}

func TestSubstituteExtendedConfig(t *testing.T) {
	// f = a + bc + bd with h = a + b + e: only extended division (core
	// a + b) applies; it is accepted only if the total literal count drops,
	// so enlarge f to make the core worthwhile.
	nw := network.New("extgain")
	for _, pi := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		nw.AddPI(pi)
	}
	nw.AddNode("h", []string{"a", "b", "e"}, cube.ParseCover(3, "a + b + c"))
	nw.AddNode("f0", []string{"a", "b", "c", "d", "f", "g"},
		cube.ParseCover(6, "a + bc + bd + be + bf"))
	nw.AddPO("f0")
	nw.AddPO("h")
	ref := nw.Clone()
	st := Substitute(nw, Options{Config: Extended})
	if !verify.Equivalent(ref, nw) {
		t.Fatal("equivalence broken")
	}
	// before: f0 = a + b(c+d+e+f) → 6; h → 3. After with core y=a+b:
	// f0 = y(a+c+d+e+f)?? RAR actually gives y(...)·… — accept whatever the
	// driver decided, but the totals must not grow.
	t.Logf("stats: %+v, lits %d → %d", st, st.LitsBefore, st.LitsAfter)
	if st.LitsAfter > st.LitsBefore {
		t.Errorf("literals grew: %d → %d", st.LitsBefore, st.LitsAfter)
	}
}

func TestSubstituteStatsConsistent(t *testing.T) {
	nw := gainNetwork()
	st := Substitute(nw, Options{Config: Basic})
	if st.LitsBefore != 7 { // g: 2, f: ab(c+d)+e = 5
		t.Errorf("LitsBefore = %d, want 7", st.LitsBefore)
	}
	if st.LitsAfter != nw.FactoredLits() {
		t.Errorf("LitsAfter = %d, actual %d", st.LitsAfter, nw.FactoredLits())
	}
}

func TestPropSubstituteSoundAllConfigs(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for trial := 0; trial < 12; trial++ {
		base := randomDAG(r, 4, 6)
		for _, cfg := range []Config{Basic, Extended, ExtendedGDC} {
			nw := base.Clone()
			st := Substitute(nw, Options{Config: cfg, POS: true, MaxPasses: 1})
			if !verify.Equivalent(base, nw) {
				t.Fatalf("trial %d cfg %v: substitution broke equivalence (stats %+v)\nbefore: %safter: %s",
					trial, cfg, st, base.String(), nw.String())
			}
			if st.LitsAfter > st.LitsBefore {
				t.Errorf("trial %d cfg %v: literals grew %d → %d", trial, cfg, st.LitsBefore, st.LitsAfter)
			}
		}
	}
}

func TestSubstituteBestGainSoundAndNotWorse(t *testing.T) {
	r := rand.New(rand.NewSource(121))
	for trial := 0; trial < 8; trial++ {
		base := randomDAG(r, 4, 6)
		greedy := base.Clone()
		stG := Substitute(greedy, Options{Config: Extended, MaxPasses: 1})
		best := base.Clone()
		stB := Substitute(best, Options{Config: Extended, MaxPasses: 1, BestGain: true})
		if !verify.Equivalent(base, greedy) || !verify.Equivalent(base, best) {
			t.Fatalf("trial %d: equivalence broken", trial)
		}
		// Best-gain should not lose to greedy on a single pass per node...
		// (global interactions can still differ; only check soundness and
		// log the comparison).
		t.Logf("trial %d: greedy %d→%d, best %d→%d", trial,
			stG.LitsBefore, stG.LitsAfter, stB.LitsBefore, stB.LitsAfter)
	}
}

func TestWindowedDivisionSoundAndEffective(t *testing.T) {
	// With a depth-2 window the Fig. 2 substitution must still be found.
	nw := gainNetwork()
	ref := nw.Clone()
	st := Substitute(nw, Options{Config: Basic, WindowDepth: 2})
	if st.Substitutions < 1 {
		t.Fatalf("windowed substitution missed: %+v", st)
	}
	if !verify.Equivalent(ref, nw) {
		t.Fatal("windowed substitution broke equivalence")
	}
}

func TestPropWindowedSound(t *testing.T) {
	r := rand.New(rand.NewSource(141))
	for trial := 0; trial < 10; trial++ {
		base := randomDAG(r, 4, 7)
		for _, depth := range []int{1, 2, 3} {
			nw := base.Clone()
			st := Substitute(nw, Options{Config: Extended, POS: true, WindowDepth: depth, MaxPasses: 1})
			if !verify.Equivalent(base, nw) {
				t.Fatalf("trial %d depth %d: equivalence broken (%+v)", trial, depth, st)
			}
		}
	}
}

func TestWindowForShape(t *testing.T) {
	// Chain a → n1 → n2 → n3 → f with divisor d over a: a depth-1 window
	// around f keeps only f (and d), with n3 as a window input.
	nw := network.New("w")
	nw.AddPI("a")
	nw.AddPI("b")
	nw.AddNode("n1", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("n2", []string{"n1", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("n3", []string{"n2", "a"}, cube.ParseCover(2, "ab'"))
	nw.AddNode("d", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("f", []string{"n3", "a", "b"}, cube.ParseCover(3, "ab + c"))
	nw.AddPO("f")
	nw.AddPO("d")
	w := windowFor(newScratch(), nw, "f", "d", 1)
	if w.Node("f") == nil || w.Node("d") == nil {
		t.Fatal("window must contain f and d")
	}
	if w.Node("n3") != nil || w.Node("n2") != nil {
		t.Error("depth-1 window should cut before n3")
	}
	if !w.IsPI("n3") {
		t.Error("n3 should be a window input")
	}
	if err := w.Check(); err != nil {
		t.Fatalf("window invalid: %v", err)
	}
}

// TestWindowIsLocal pins windowFor's node order to the cones of f and d:
// the same cones built in a different creation order, inside networks with
// unrelated extra logic (including fanouts of window nodes created before
// them), yield a byte-identical window whose node order is topological.
func TestWindowIsLocal(t *testing.T) {
	type def struct {
		name   string
		fanins []string
		cover  string
	}
	cone := []def{
		{"n1", []string{"a", "b"}, "ab"},
		{"n2", []string{"b", "c"}, "a + b"},
		{"n3", []string{"n1", "n2"}, "ab'"},
		{"d", []string{"n2", "c"}, "a + b"},
		{"f", []string{"n3", "n1", "c"}, "ab + c"},
	}
	build := func(order []int, extra bool) *network.Network {
		nw := network.New("w")
		for _, pi := range []string{"a", "b", "c"} {
			nw.AddPI(pi)
		}
		if extra {
			// Created before the cone, reading cone signals by name.
			nw.AddNode("x1", []string{"n3", "a"}, cube.ParseCover(2, "ab"))
			nw.AddNode("x2", []string{"n2", "x1"}, cube.ParseCover(2, "a'b"))
		}
		for _, i := range order {
			c := cone[i]
			nw.AddNode(c.name, c.fanins, cube.ParseCover(len(c.fanins), c.cover))
		}
		nw.AddPO("f")
		nw.AddPO("d")
		if extra {
			nw.AddPO("x2")
		}
		return nw
	}
	// The BLIF prints nodes in the window's topological order; the node
	// list pins its creation order too.
	render := func(w *network.Network) string {
		var names []string
		for _, n := range w.Nodes() {
			names = append(names, n.Name)
		}
		return strings.Join(names, " ") + "\n" + blif.ToString(w)
	}
	want := render(windowFor(newScratch(), build([]int{0, 1, 2, 3, 4}, false), "f", "d", 3))
	for _, tc := range []struct {
		order []int
		extra bool
	}{
		{[]int{1, 0, 3, 2, 4}, false},
		{[]int{4, 3, 2, 1, 0}, true},
		{[]int{0, 1, 2, 3, 4}, true},
	} {
		w := windowFor(newScratch(), build(tc.order, tc.extra), "f", "d", 3)
		if got := render(w); got != want {
			t.Errorf("order %v extra=%v: window differs\ngot:\n%s\nwant:\n%s", tc.order, tc.extra, got, want)
		}
		seen := map[string]bool{}
		for _, n := range w.Nodes() {
			for _, fi := range n.Fanins {
				if w.Node(fi) != nil && !seen[fi] {
					t.Errorf("window node %s precedes its fanin %s", n.Name, fi)
				}
			}
			seen[n.Name] = true
		}
	}
}

func TestDepthBudgetEnforced(t *testing.T) {
	// Without a budget the Fig. 2 substitution deepens f (g becomes a
	// fanin, adding a level); with the budget pinned at the current depth
	// the substitution must be rejected and the depth preserved.
	nw := gainNetwork()
	_, before := nw.Levels()
	free := nw.Clone()
	Substitute(free, Options{Config: Basic})
	if _, d := free.Levels(); d <= before {
		t.Skip("substitution did not deepen; budget test vacuous")
	}
	capped := nw.Clone()
	st := Substitute(capped, Options{Config: Basic, DepthBudget: before})
	if _, d := capped.Levels(); d > before {
		t.Errorf("depth budget violated: %d > %d (stats %+v)", d, before, st)
	}
	if !verify.Equivalent(nw, capped) {
		t.Fatal("equivalence broken")
	}
}

func TestDepthBudgetLooseAllowsGains(t *testing.T) {
	nw := gainNetwork()
	_, before := nw.Levels()
	st := Substitute(nw, Options{Config: Basic, DepthBudget: before + 4})
	if st.Substitutions < 1 {
		t.Errorf("loose budget should not block: %+v", st)
	}
}

// TestBestGainRetriesNextBestUnderDepthBudget is the regression test for
// BestGain under a DepthBudget: when the best-gain plan is depth-rejected,
// the engine must fall back to the next-best positive-gain plan instead of
// abandoning the node (which would make BestGain strictly weaker than the
// greedy first-positive rule under the same budget).
//
// Construction: f = tcde + x has two divisors — h = tcd (gain 2, but h sits
// one level below f, so committing it deepens the network past the budget)
// and g = ce (gain 1, level 1, depth-neutral). BestGain must try h first,
// have the commit depth-rejected and undone byte-exactly, then commit g.
func TestBestGainRetriesNextBestUnderDepthBudget(t *testing.T) {
	nw := network.New("retry")
	for _, pi := range []string{"a", "b", "c", "d", "e", "x"} {
		nw.AddPI(pi)
	}
	nw.AddNode("t", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("g", []string{"c", "e"}, cube.ParseCover(2, "ab"))
	nw.AddNode("h", []string{"t", "c", "d"}, cube.ParseCover(3, "abc"))
	nw.AddNode("f", []string{"t", "c", "d", "e", "x"}, cube.ParseCover(5, "abcd + e"))
	for _, po := range []string{"f", "g", "h", "t"} {
		nw.AddPO(po)
	}
	_, budget := nw.Levels()
	ref := nw.Clone()
	st := Substitute(nw, Options{Config: Basic, BestGain: true, DepthBudget: budget, MaxPasses: 1})
	if st.DepthRejected == 0 {
		t.Fatalf("best-gain plan (h) was not depth-rejected: %+v", st)
	}
	if nw.Node("f").FaninIndex("g") < 0 {
		t.Fatalf("retry did not commit the next-best plan (g into f): f fanins %v, stats %+v",
			nw.Node("f").Fanins, st)
	}
	if _, d := nw.Levels(); d > budget {
		t.Errorf("depth budget violated: %d > %d", d, budget)
	}
	if !verify.Equivalent(ref, nw) {
		t.Fatal("equivalence broken")
	}
}

func TestPropDepthBudgetSound(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	for trial := 0; trial < 8; trial++ {
		base := randomDAG(r, 4, 6)
		_, budget := base.Levels()
		nw := base.Clone()
		Substitute(nw, Options{Config: Extended, POS: true, DepthBudget: budget, MaxPasses: 1})
		if _, d := nw.Levels(); d > budget {
			t.Fatalf("trial %d: depth %d exceeds budget %d", trial, d, budget)
		}
		if !verify.Equivalent(base, nw) {
			t.Fatalf("trial %d: equivalence broken", trial)
		}
	}
}
