// Determinism acceptance tests for the plan/commit substitution engine:
// core.Substitute must commit a byte-identical network, with the same
// Stats, at any worker count and whatever the deprecated
// Options.NoSigFilter says. Every bench-suite circuit, after Script A, runs
// through all three configurations on both sides of each comparison.
package repro_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/script"
)

// sweepSide is one side of a suite comparison.
type sweepSide struct {
	workers     int
	noSigFilter bool
}

func (s sweepSide) String() string {
	return fmt.Sprintf("Workers=%d NoSigFilter=%v", s.workers, s.noSigFilter)
}

// compareSuite runs every bench-suite circuit, after Script A, through all
// three configurations once per side. The two sides must commit
// byte-identical BLIF with every Stats counter but the pass times equal,
// and the SigFilter counters must read 0 on both.
func compareSuite(t *testing.T, a, b sweepSide) {
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"basic", core.Basic},
		{"ext", core.Extended},
		{"extgdc", core.ExtendedGDC},
	}
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prepared := bench.Get(name)
			script.Prepare(2, prepared)
			for _, c := range configs {
				run := func(s sweepSide) (string, core.Stats) {
					nw := prepared.Clone()
					st := core.Substitute(nw, core.Options{
						Config: c.cfg, POS: true, Pool: true,
						Workers: s.workers, NoSigFilter: s.noSigFilter,
					})
					if st.SigFilterReject != 0 || st.SigFilterPass != 0 || st.SigFilterFalsePass != 0 {
						t.Errorf("%s/%s/%v: SigFilter counters not 0: %+v", name, c.name, s, st)
					}
					st.PassTimes = nil
					return blif.ToString(nw), st
				}
				blifA, stA := run(a)
				blifB, stB := run(b)
				if blifA != blifB {
					t.Errorf("%s/%s: network with %v differs from %v\n--- %v ---\n%s\n--- %v ---\n%s",
						name, c.name, b, a, a, blifA, b, blifB)
				} else if !reflect.DeepEqual(stA, stB) {
					t.Errorf("%s/%s: stats with %v differ from %v\n%v: %+v\n%v: %+v", name, c.name, b, a, a, stA, b, stB)
				}
			}
		})
	}
}

// TestSubstituteSigFilterInvariant guards the contract of the deprecated
// Options.NoSigFilter, which the bdsbench benchmark still sets: at one
// worker, setting it must change nothing.
func TestSubstituteSigFilterInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite NoSigFilter sweep skipped in -short mode")
	}
	compareSuite(t, sweepSide{workers: 1, noSigFilter: true}, sweepSide{workers: 1})
}

// TestSubstituteWorkerCountInvariant requires a Workers=8 run to commit
// what a Workers=1 run commits. The serial side sets NoSigFilter, so the
// field is also checked across worker counts.
func TestSubstituteWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite determinism sweep skipped in -short mode")
	}
	compareSuite(t, sweepSide{workers: 1, noSigFilter: true}, sweepSide{workers: 8})
}
