package opt_test

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/network"
	"repro/internal/opt"
	"repro/internal/script"
)

// checkBestKernel fails the test unless the prefiltered bestKernel picks the
// same kernel with the same gain as the unfiltered reference on nw.
func checkBestKernel(t *testing.T, where string, nw *network.Network) int {
	t.Helper()
	k, gain := opt.BestKernel(nw)
	rk, rgain := opt.BestKernelUnfiltered(nw)
	if gain != rgain || !reflect.DeepEqual(k, rk) {
		t.Fatalf("%s: prefiltered bestKernel gain %d, reference gain %d (kernels equal: %v)",
			where, gain, rgain, reflect.DeepEqual(k, rk))
	}
	return gain
}

// checkedGkx is opt.Gkx with checkBestKernel at every iteration.
func checkedGkx(t *testing.T, where string, nw *network.Network) {
	t.Helper()
	for iter := 0; iter < 64; iter++ {
		k, _ := opt.BestKernel(nw)
		if checkBestKernel(t, where, nw) <= 0 {
			return
		}
		opt.ExtractKernel(nw, k)
	}
}

// TestBestKernelPrefilterExact checks that skipping nodes which lack a
// kernel signal as a fanin never changes kernel extraction: on every suite
// circuit, after Scripts A, B and C and at every Gkx iteration of Script C
// and of script.Algebraic, the prefiltered bestKernel returns the kernel
// and gain of the loop that divides every node. The checked flows must end
// in the same BLIF as the script functions they re-run, so the
// iterations checked are the ones the scripts perform.
func TestBestKernelPrefilterExact(t *testing.T) {
	for _, name := range bench.Names() {
		for _, prep := range []struct {
			label string
			run   func(*network.Network)
		}{{"A", script.A}, {"B", script.B}, {"C", script.C}} {
			nw := bench.Get(name)
			prep.run(nw)
			checkBestKernel(t, name+" after Script "+prep.label, nw)
		}

		// Script C: eliminate 0; simplify; gkx.
		nw := bench.Get(name)
		script.A(nw)
		checkedGkx(t, name+" Script C gkx", nw)
		nw.Sweep()
		want := bench.Get(name)
		script.C(want)
		if blif.ToString(nw) != blif.ToString(want) {
			t.Fatalf("%s: checked Script C diverged from script.C", name)
		}

		// script.Algebraic, step for step, with the SIS resub step.
		resub := script.ResubSIS
		nw = bench.Get(name)
		nw.Sweep()
		nw.Eliminate(5)
		opt.SimplifyAll(nw)
		resub(nw)
		checkedGkx(t, name+" Algebraic gkx 1", nw)
		resub(nw)
		nw.Sweep()
		opt.Gcx(nw)
		resub(nw)
		nw.Sweep()
		checkedGkx(t, name+" Algebraic gkx 2", nw)
		resub(nw)
		nw.Sweep()
		nw.Eliminate(0)
		opt.Decomp(nw)
		nw.Sweep()
		want = bench.Get(name)
		script.Algebraic(want, resub)
		if blif.ToString(nw) != blif.ToString(want) {
			t.Fatalf("%s: checked script.Algebraic diverged from script.Algebraic", name)
		}
	}
}
