// Determinism acceptance test for the plan/commit substitution engine:
// core.Substitute must commit a byte-identical network at any worker count.
// Every bench-suite circuit is run through all three configurations with
// Workers=1 and Workers=8 and the results BLIF-compared.
package repro_test

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/script"
)

// TestSubstituteSigFilterInvariant guards the contract of the deprecated
// Options.NoSigFilter, which the bdsbench benchmark still sets: over the
// bench suite and all three configurations the field must change nothing.
// The committed BLIF must be byte-identical with it set and unset, serially
// and with a parallel worker pool, every Stats counter but the pass times
// must match, and the SigFilter counters must read 0.
func TestSubstituteSigFilterInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite NoSigFilter sweep skipped in -short mode")
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"basic", core.Basic},
		{"ext", core.Extended},
		{"extgdc", core.ExtendedGDC},
	}
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prepared := bench.Get(name)
			script.Prepare(2, prepared)
			for _, c := range configs {
				run := func(noFilter bool, workers int) (string, core.Stats) {
					nw := prepared.Clone()
					st := core.Substitute(nw, core.Options{
						Config: c.cfg, POS: true, Pool: true,
						Workers: workers, NoSigFilter: noFilter,
					})
					if st.SigFilterReject != 0 || st.SigFilterPass != 0 || st.SigFilterFalsePass != 0 {
						t.Errorf("%s/%s: SigFilter counters not 0: %+v", name, c.name, st)
					}
					st.PassTimes = nil
					return blif.ToString(nw), st
				}
				off, stOff := run(true, 1)
				if on, stOn := run(false, 1); on != off {
					t.Errorf("%s/%s: NoSigFilter unset (serial) differs from set\n--- set ---\n%s\n--- unset ---\n%s",
						name, c.name, off, on)
				} else if !reflect.DeepEqual(stOn, stOff) {
					t.Errorf("%s/%s: NoSigFilter changed the stats\nset   %+v\nunset %+v", name, c.name, stOff, stOn)
				}
				if on8, _ := run(false, 8); on8 != off {
					t.Errorf("%s/%s: NoSigFilter unset (Workers=8) differs from set\n--- set ---\n%s\n--- unset ---\n%s",
						name, c.name, off, on8)
				}
			}
		})
	}
}

func TestSubstituteWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite determinism sweep skipped in -short mode")
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"basic", core.Basic},
		{"ext", core.Extended},
		{"extgdc", core.ExtendedGDC},
	}
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prepared := bench.Get(name)
			script.Prepare(2, prepared)
			for _, c := range configs {
				opt := core.Options{Config: c.cfg, POS: true, Pool: true}
				serial := prepared.Clone()
				opt.Workers = 1
				core.Substitute(serial, opt)
				parallel := prepared.Clone()
				opt.Workers = 8
				core.Substitute(parallel, opt)
				if a, b := blif.ToString(serial), blif.ToString(parallel); a != b {
					t.Errorf("%s/%s: Workers=8 network differs from Workers=1\n--- serial ---\n%s\n--- parallel ---\n%s",
						name, c.name, a, b)
				}
			}
		})
	}
}
