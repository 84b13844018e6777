package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/script"
)

// BenchmarkSubstituteReference measures what the reference path costs
// against the default one: the reference path (which Options.Audit replays
// trials on) deep-clones the network for every trial and rebuilds its
// netlist every RAR pass, while the default path patches every trial into
// a memoized base netlist or a carved window. The committed networks are
// bit-identical either way (TestSubstituteOverlayInvariant); allocs/op and
// B/op are the headline metrics here, lits confirms results did not move.
func BenchmarkSubstituteReference(b *testing.B) {
	circuits := []string{"rnd_d", "rnd_e", "csel8", "mult3", "pla_c"}
	prepared := make([]*network.Network, len(circuits))
	for i, name := range circuits {
		nw := bench.Get(name)
		script.A(nw)
		prepared[i] = nw
	}
	opt := core.Options{Config: core.Extended, POS: true, Pool: true}
	for _, mode := range []struct {
		name string
		opt  core.Options
	}{{"reference", core.WithReference(opt)}, {"default", opt}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				total := 0
				for _, base := range prepared {
					nw := base.Clone()
					core.Substitute(nw, mode.opt)
					total += nw.FactoredLits()
				}
				b.ReportMetric(float64(total), "lits")
			}
		})
	}
}
