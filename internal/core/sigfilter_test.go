package core

import (
	"math/rand"
	"testing"

	"repro/internal/blif"
)

// TestSigFilterSoundness is the filter's core property: a candidate the
// signature prefilter rejects is a candidate whose exact division trial
// yields no committable plan — planPair either fails or reports a gain the
// driver would never commit (≤ 0). Checked on every rejected candidate of
// random networks — any positive-gain success is a soundness bug (the
// filter would have changed which plans commit).
func TestSigFilterSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	sc := newScratch()
	rejected := 0
	for trial := 0; trial < 12; trial++ {
		base := randomDAG(r, 4, 7)
		for _, cfg := range []Config{Basic, Extended, ExtendedGDC} {
			nw := base.Clone()
			opt := Options{Config: cfg, POS: true, MaxComplementCubes: DefaultMaxComplementCubes}
			nw.EnableSigs()
			cc := newComplCache(DefaultMaxComplementCubes)
			sigs := newSigCache(nw)
			for _, f := range nw.TopoOrder() {
				fn := nw.Node(f)
				if fn == nil || fn.Cover.IsZero() {
					continue
				}
				cands := candidateDivisors(nw, sigs, cc, f, opt, nil)
				sf := newSimSigFilter(nw, f, cc, opt)
				if sf == nil {
					continue
				}
				for _, cand := range cands {
					if sf.admits(cand) {
						continue
					}
					rejected++
					if p, ok := planPair(sc, nw, f, cand, opt); ok && p.gain > 0 {
						t.Fatalf("trial %d cfg %v: filter rejected %+v for %s but exact division found a committable plan (gain %d)",
							trial, cfg, cand, f, p.gain)
					}
				}
			}
			nw.DisableSigs()
		}
	}
	if rejected == 0 {
		t.Error("property never exercised: no candidate was rejected")
	}
}

// TestSubstituteSigFilterMatchesUnfiltered asserts the engine's headline
// guarantee: the committed network is byte-identical with the prefilter on
// or off, while the filter strictly reduces exact trial counts.
func TestSubstituteSigFilterMatchesUnfiltered(t *testing.T) {
	r := rand.New(rand.NewSource(4321))
	totalReject := 0
	run := func(t *testing.T, label string, baseBLIF string, cfg Config) {
		base, err := blif.ParseString(baseBLIF)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			opt := Options{Config: cfg, POS: true, Pool: true, Workers: workers}
			on := base.Clone()
			stOn := Substitute(on, opt)
			opt.NoSigFilter = true
			off := base.Clone()
			stOff := Substitute(off, opt)
			if a, b := blif.ToString(on), blif.ToString(off); a != b {
				t.Fatalf("%s cfg %v workers %d: filter changed the committed network\n--- filter on ---\n%s\n--- filter off ---\n%s",
					label, cfg, workers, a, b)
			}
			if stOn.Substitutions != stOff.Substitutions || stOn.LitsAfter != stOff.LitsAfter {
				t.Errorf("%s cfg %v workers %d: stats diverged: on %+v off %+v", label, cfg, workers, stOn, stOff)
			}
			if stOff.SigFilterReject != 0 || stOff.SigFilterPass != 0 {
				t.Errorf("%s: disabled filter recorded activity: %+v", label, stOff)
			}
			if got, want := stOn.DivisorTrials+stOn.SigFilterReject, stOff.DivisorTrials; got != want {
				t.Errorf("%s cfg %v workers %d: evaluated+rejected = %d, unfiltered trials = %d",
					label, cfg, workers, got, want)
			}
			totalReject += stOn.SigFilterReject
		}
	}
	for trial := 0; trial < 6; trial++ {
		base := randomDAG(r, 4, 7)
		for _, cfg := range []Config{Basic, Extended, ExtendedGDC} {
			run(t, "rand", blif.ToString(base), cfg)
		}
	}
	run(t, "gain", blif.ToString(gainNetwork()), Basic)
	if totalReject == 0 {
		t.Error("filter never rejected a candidate across the whole sweep")
	}
}
