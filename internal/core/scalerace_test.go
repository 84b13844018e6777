package core

import (
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/network"
)

// TestSubstituteBatchScaleRace drives the batch scheduler over large
// circuits regenerated in-process from the committed recipes (seed 1, the
// same recipes BenchmarkSubstituteScale uses, so nothing large is checked
// in): a cone forest, where batches fill with disjoint cones, and 10k gates
// of entangled random logic, where batches form between overlapping cones
// and the sweep has to evict. Every leg's committed BLIF must be
// byte-identical across worker counts and batch on/off, and every leg's
// output must match its input on a seeded random-simulation miter over
// every primary output. ci.sh runs it under -race with BDS_SCALE_RACE=1,
// which is the point: Phase B speculation is the only concurrent part of
// the engine, and a small randomDAG doesn't produce enough in-flight
// members to exercise the claim/evict windows the way these circuits do.
//
// The test skips unless BDS_SCALE_RACE is set because a race-instrumented
// run at full size takes minutes — far over the plain `go test ./...` budget.
// BDS_SCALE_GATES overrides the cone forest's size (ci.sh uses the full
// 100000).
func TestSubstituteBatchScaleRace(t *testing.T) {
	if os.Getenv("BDS_SCALE_RACE") == "" {
		t.Skip("set BDS_SCALE_RACE=1 (and optionally BDS_SCALE_GATES) to run the large-circuit race/identity check; ci.sh does")
	}
	gates := 100_000
	if s := os.Getenv("BDS_SCALE_GATES"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad BDS_SCALE_GATES %q: %v", s, err)
		}
		gates = v
	}

	// The no-batch legs run the serial driver, which starts no phase-B
	// workers and so gives the race detector nothing to check: on the
	// 100k-gate cone forest they would only lengthen the run, so they run
	// there only at small sizes. Batch-vs-serial byte-identity at scale is
	// still enforced on the 10k random-logic legs, and at suite scale by the
	// invariant matrices `go test -race ./internal/core` always runs.
	coneModes := []bool{false}
	if gates <= 20_000 {
		coneModes = append(coneModes, true)
	}
	for _, c := range []struct {
		name        string
		shape       string
		gates, pis  int
		noBatchLegs []bool
	}{
		{"cone", "cone", gates, 0, coneModes},
		{"rand10k", "rand", 10_000, 64, []bool{false, true}},
	} {
		base, err := bench.Generate(c.shape, c.gates, c.pis, 1)
		if err != nil {
			t.Fatal(err)
		}
		const miterSeed, miterWords = 1, 32
		ref := poWords(base, miterSeed, miterWords)
		var want string
		for _, noBatch := range c.noBatchLegs {
			for _, workers := range []int{1, 4, 8} {
				nw := base.Clone()
				o := scaleOptions(workers)
				o.NoBatch = noBatch
				st := Substitute(nw, o)
				label := "batch"
				if noBatch {
					label = "nobatch"
				}
				if !slices.Equal(nw.PIs(), base.PIs()) || !slices.Equal(nw.POs(), base.POs()) {
					t.Fatalf("%s %s/w%d: Substitute changed the interface", c.name, label, workers)
				}
				if got := poWords(nw, miterSeed, miterWords); !slices.EqualFunc(got, ref, slices.Equal[[]uint64]) {
					t.Fatalf("%s %s/w%d: output differs from the input on the random-simulation miter", c.name, label, workers)
				}
				got := blif.ToString(nw)
				if want == "" {
					want = got
					t.Logf("%s %s/w%d reference: %d substitutions, %d batch commits, %d speculated trials, %d evictions",
						c.name, label, workers, st.Substitutions, st.BatchCommits, st.SpeculatedTrials, st.ConflictEvictions)
					continue
				}
				if got != want {
					t.Fatalf("%s %s/w%d: committed BLIF diverged from the %s reference (%d substitutions, %d batch commits)",
						c.name, label, workers, c.name, st.Substitutions, st.BatchCommits)
				}
			}
		}
	}
}

// poWords simulates nw on words of 64 seeded random patterns, drawing one
// word per primary input in declaration order, and returns each primary
// output's words in declaration order. Substitute keeps the interface and
// its order, so two runs from one seed form a miter.
func poWords(nw *network.Network, seed int64, words int) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	in := make(map[string]uint64, len(nw.PIs()))
	out := make([][]uint64, len(nw.POs()))
	for w := 0; w < words; w++ {
		for _, pi := range nw.PIs() {
			in[pi] = rng.Uint64()
		}
		val := nw.Simulate(in)
		for i, po := range nw.POs() {
			out[i] = append(out[i], val[po])
		}
	}
	return out
}
