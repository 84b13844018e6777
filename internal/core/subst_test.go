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
	cands := candidateDivisors(nw, newNodeCache(nw), "f", Options{Config: Basic, POS: true}, nil)
	foundPOS := false
	for _, c := range cands {
		if c.name == "d0" && c.form == formPOS {
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

// tryPair plans one candidate and commits it when the gain is positive
// (the paper's first-positive-gain rule), serially: the one-shot entry
// these tests drive instead of Substitute's evaluator.
func tryPair(nw *network.Network, f string, cand candidate, opt Options, nc *nodeCache, st *Stats) bool {
	seq := trialSeq{f: f, cands: []candidate{cand}}
	p, ok := seq.choose(newScratch(), nw, opt)
	if ok {
		commitPlan(nw, p, opt, nc, st)
	}
	return ok
}

func TestSubstitutePOSOnlyPath(t *testing.T) {
	// Force the POS path by running tryPair with the POS form directly on
	// the product-form network; the commit must be sound and use the
	// divisor.
	nw := posNetwork()
	ref := nw.Clone()
	var st Stats
	if !tryPair(nw, "f", candidate{name: "d0", form: formPOS}, Options{Config: Basic, POS: true}, newNodeCache(nw), &st) {
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

// TestSubstituteNegativeLimitsUseDefaults: a negative MaxPasses or
// MaxDivisorTrials means the default, as zero does — not zero passes, and
// not a panic slicing the candidate list — on the serial and the batch
// path alike.
func TestSubstituteNegativeLimitsUseDefaults(t *testing.T) {
	base := randomDAG(rand.New(rand.NewSource(4242)), 5, 14)
	for _, cfg := range []Config{Basic, Extended} {
		for _, noBatch := range []bool{false, true} {
			opt := Options{Config: cfg, POS: true, NoBatch: noBatch}
			want := base.Clone()
			wantSt := Substitute(want, opt)
			if wantSt.Passes == 0 || wantSt.DivisorTrials == 0 {
				t.Fatalf("cfg %v noBatch=%v: default run did no work: %+v", cfg, noBatch, wantSt)
			}
			for _, neg := range []Options{{MaxPasses: -1}, {MaxDivisorTrials: -1}} {
				o := opt
				o.MaxPasses, o.MaxDivisorTrials = neg.MaxPasses, neg.MaxDivisorTrials
				got := base.Clone()
				gotSt := Substitute(got, o)
				if gotSt.Passes != wantSt.Passes || gotSt.DivisorTrials != wantSt.DivisorTrials ||
					gotSt.Substitutions != wantSt.Substitutions || blif.ToString(got) != blif.ToString(want) {
					t.Errorf("cfg %v noBatch=%v MaxPasses=%d MaxDivisorTrials=%d: %+v, default %+v",
						cfg, noBatch, o.MaxPasses, o.MaxDivisorTrials, gotSt, wantSt)
				}
			}
		}
	}
}

// FuzzSubstitute runs the whole optimizer over a random DAG crossed with
// the Options matrix: Config × POS × Pool × BestGain × WindowDepth 0–3 ×
// MaxPasses 1–3 × MaxDivisorTrials {0, 1, 4}. Each input runs under Audit
// (network.Check after every commit, every trial replayed on the
// reference path) at Workers 1 and 3 with the batch scheduler on and off.
// The four committed networks must print the same BLIF, compute the
// input's functions and pass network.Check.
//
// The two seeded configurations once crashed the signature prefilter the
// engine ran in front of its trials, which held a *Node across a commit's
// rollback. Commits no longer roll back; the seeds run ext+GDC extended
// divisions with POS, and with pooling.
func FuzzSubstitute(f *testing.F) {
	const pos, pool = 1, 2
	f.Add(int64(94), uint8(2), uint8(pos), uint8(2), uint8(1), uint8(2))
	f.Add(int64(1260), uint8(2), uint8(pos|pool), uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, cfg, flags, window, passes, trials uint8) {
		r := rand.New(rand.NewSource(seed))
		base := randomDAG(r, 4+r.Intn(4), 6+r.Intn(10))
		opt := Options{
			Config:           []Config{Basic, Extended, ExtendedGDC}[cfg%3],
			POS:              flags&pos != 0,
			Pool:             flags&pool != 0,
			BestGain:         flags&4 != 0,
			WindowDepth:      int(window % 4),
			MaxPasses:        1 + int(passes%3),
			MaxDivisorTrials: []int{0, 1, 4}[trials%3],
			Audit:            true,
		}
		want := ""
		for _, workers := range []int{1, 3} {
			for _, noBatch := range []bool{false, true} {
				run := opt
				run.Workers, run.NoBatch = workers, noBatch
				nw := base.Clone()
				Substitute(nw, run)
				got := blif.ToString(nw)
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("seed %d %+v: workers %d batch %v diverged\nwant:\n%s\ngot:\n%s",
						seed, opt, workers, !noBatch, want, got)
				}
				if !verify.Equivalent(base, nw) {
					t.Fatalf("seed %d %+v: workers %d batch %v broke equivalence", seed, opt, workers, !noBatch)
				}
				if err := nw.Check(); err != nil {
					t.Fatalf("seed %d %+v: workers %d batch %v: %v", seed, opt, workers, !noBatch, err)
				}
			}
		}
	})
}
