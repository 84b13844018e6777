package core

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/network"
)

// TestSubstitutePooledScratchHasNoStaleBuild checks that a scratch reused
// from the pool carries no base build over from an earlier Substitute. A
// flow calls Substitute again on the same *Network after editing it, with
// the commit epoch back at 0, so a build memoized by a Substitute that
// committed nothing would still read as current. On every suite circuit
// run here, a Substitute that commits nothing, an edit, and a second
// Substitute on the same network must leave the BLIF that the second
// Substitute leaves on a fresh copy of the edited network; and a
// Substitute that panics under the Audit corruption seam, an edit, and
// another Substitute likewise. One P keeps the pool handing back the
// scratch the previous call released.
func TestSubstitutePooledScratchHasNoStaleBuild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opt := Options{Config: Basic, Workers: 1}
	// edit restructures nw without going through Substitute, collapsing
	// nodes of value below threshold into their fanouts, and counts the
	// edits that changed something.
	edited := make([]int, 2)
	edit := func(nw *network.Network, step, threshold int) {
		before := blif.ToString(nw)
		nw.Eliminate(threshold)
		nw.Sweep()
		if blif.ToString(nw) != before {
			edited[step]++
		}
	}
	// checkNext runs Substitute on nw, then on a copy taken before it, and
	// fails unless the two agree.
	checkNext := func(label string, nw *network.Network) {
		t.Helper()
		fresh := nw.Clone()
		Substitute(nw, opt)
		Substitute(fresh, opt)
		if blif.ToString(nw) != blif.ToString(fresh) {
			t.Fatalf("%s: Substitute on the edited network differs from a run on a fresh copy", label)
		}
	}
	for _, name := range []string{"rnd_a", "rnd_d", "csel8", "mult3", "pla_c"} {
		nw := bench.Get(name)
		for Substitute(nw, opt).Substitutions > 0 {
		}
		edit(nw, 0, 2)
		checkNext(name+" after a Substitute that committed nothing", nw)

		func() {
			defer func() { overlayAuditCorrupt = nil }()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Audit accepted a corrupted plan", name)
				}
			}()
			overlayAuditCorrupt = func(p *plan) { p.gain += 1000 }
			Substitute(nw, Options{Config: Basic, Workers: 1, Audit: true})
		}()
		edit(nw, 1, 20)
		checkNext(name+" after a Substitute that panicked", nw)
	}
	if edited[0] == 0 || edited[1] == 0 {
		t.Fatalf("edits that changed a network: %v; with none, nothing could go stale", edited)
	}
}
