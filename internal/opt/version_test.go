package opt_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/network"
	"repro/internal/opt"
	"repro/internal/script"
)

// TestCoverPassesAdvanceVersion runs each pass that rewrites node covers,
// with signature and cone tables attached, and requires every run that
// changes a network to advance its version, and the network to pass Check
// afterwards (which audits a table still at the network's version against
// a fresh computation). For each pass, one of these circuits ends with a
// cover write that no other edit follows, so a write behind the network's
// back would leave both tables answering from the old covers.
func TestCoverPassesAdvanceVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("ExactDCSimplify on csel8 skipped in -short mode")
	}
	passes := []struct {
		name    string
		prepare func(*network.Network)
		run     func(*network.Network)
	}{
		{"SimplifyAll", func(*network.Network) {}, func(nw *network.Network) { opt.SimplifyAll(nw) }},
		{"FullSimplify", script.A, func(nw *network.Network) { opt.FullSimplify(nw, 1) }},
		{"RemoveRedundancies", func(*network.Network) {}, func(nw *network.Network) { opt.RemoveRedundancies(nw, 1) }},
		{"ExactDCSimplify", func(*network.Network) {}, func(nw *network.Network) { opt.ExactDCSimplify(nw, 20) }},
	}
	for _, p := range passes {
		t.Run(p.name, func(t *testing.T) {
			changed := 0
			for _, name := range []string{"pla_a", "csel8", "alu2"} {
				nw := bench.Get(name)
				p.prepare(nw)
				nw.EnableSigs()
				nw.EnableCones()
				before, v := blif.ToString(nw), nw.Version()
				p.run(nw)
				if blif.ToString(nw) == before {
					continue
				}
				changed++
				if nw.Version() == v {
					t.Errorf("%s: the pass changed the network but not its version", name)
				}
				if err := nw.Check(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
			if changed == 0 {
				t.Fatal("the pass changed no suite circuit")
			}
		})
	}
}
