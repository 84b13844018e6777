package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/network"
)

// TestSubstitutePooledScratchHasNoStaleBuild checks that a scratch reused
// from the free list never patches a base build of an older network state.
// A flow calls Substitute again on the same *Network after editing it, so
// a build memoized by an earlier Substitute, or one kept across a commit,
// would be patched as if current. On every suite circuit run here, a
// Substitute that commits nothing, an edit, and a second Substitute on the
// same network must leave the BLIF that the reference path (which builds every
// netlist fresh) leaves on a copy of the edited network; and a Substitute
// that panics under the Audit corruption seam, an edit, and another
// Substitute likewise. The free list hands the next call the scratch the
// previous call released.
func TestSubstitutePooledScratchHasNoStaleBuild(t *testing.T) {
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
	// checkNext runs Substitute on nw, then the reference path on a copy taken
	// before it, and fails unless the two agree.
	checkNext := func(label string, nw *network.Network) {
		t.Helper()
		fresh := nw.Clone()
		Substitute(nw, opt)
		ref := opt
		ref.reference = true
		Substitute(fresh, ref)
		if blif.ToString(nw) != blif.ToString(fresh) {
			t.Fatalf("%s: Substitute on the edited network differs from the reference path on a fresh copy", label)
		}
	}
	for _, name := range []string{"rnd_a", "rnd_d", "csel8", "mult3", "pla_c"} {
		nw := bench.Get(name)
		for Substitute(nw, opt).Substitutions > 0 {
		}
		edit(nw, 0, 2)
		checkNext(name+" after a Substitute that committed nothing", nw)

		func() {
			defer func() { referenceAuditCorrupt = nil }()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Audit accepted a corrupted plan", name)
				}
			}()
			referenceAuditCorrupt = func(p *plan) { p.gain += 1000 }
			Substitute(nw, Options{Config: Basic, Workers: 1, Audit: true})
		}()
		edit(nw, 1, 20)
		checkNext(name+" after a Substitute that panicked", nw)
	}
	if edited[0] == 0 || edited[1] == 0 {
		t.Fatalf("edits that changed a network: %v; with none, nothing could go stale", edited)
	}
}

// TestSubstituteConcurrentCallsShareFreeList runs Substitute from several
// goroutines at once, so they take scratches from the free list and return
// them concurrently (ci.sh runs this package under -race), and requires
// every result to equal a serial run's and the list to keep no more than
// max(GOMAXPROCS, 2) scratches of the many checked out at once.
func TestSubstituteConcurrentCallsShareFreeList(t *testing.T) {
	names := []string{"rnd_a", "rnd_d", "csel8", "mult3", "pla_c"}
	opt := Options{Config: Basic, Workers: 2}
	want := make([]string, len(names))
	for i, name := range names {
		nw := bench.Get(name)
		Substitute(nw, opt)
		want[i] = blif.ToString(nw)
	}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i, name := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				nw := bench.Get(name)
				Substitute(nw, opt)
				if blif.ToString(nw) != want[i] {
					t.Errorf("%s: a concurrent Substitute differs from a serial one", name)
				}
			}()
		}
	}
	wg.Wait()
	scratchPool.Lock()
	defer scratchPool.Unlock()
	if n, limit := len(scratchPool.free), max(runtime.GOMAXPROCS(0), opt.Workers); n > limit {
		t.Errorf("free list holds %d scratches, more than max(GOMAXPROCS, Workers) = %d", n, limit)
	}
}
