package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/script"
)

// BenchmarkSubstituteOverlay measures the copy-on-write trial path: with
// overlays on (the default), every division trial runs on an O(delta)
// overlay of the network and RAR passes patch a memoized base netlist
// instead of rebuilding; off is the reference clone-and-rebuild path that
// Options.Audit replays trials on. The committed networks are
// bit-identical either way (TestSubstituteOverlayInvariant); allocs/op and
// B/op are the headline metrics here, lits confirms results did not move.
func BenchmarkSubstituteOverlay(b *testing.B) {
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
	}{{"off", core.WithNoOverlay(opt)}, {"on", opt}} {
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
