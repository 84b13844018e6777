package opt_test

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/opt"
	"repro/internal/script"
)

// TestResubPrefilterExact checks that the SIS baseline's literal
// prefilter never changes a plan: on every suite circuit after Scripts A,
// B and C, for every dividend and every divisor the baseline may try, the
// prefiltered planner returns the plans of the one that divides both
// phases whatever signals the divisor reads, with and without the
// complement phase.
func TestResubPrefilterExact(t *testing.T) {
	planned := 0
	for _, name := range bench.Names() {
		for _, prep := range []struct {
			label string
			run   func(*network.Network)
		}{{"A", script.A}, {"B", script.B}, {"C", script.C}} {
			nw := bench.Get(name)
			prep.run(nw)
			names := nw.SortedNodeNames()
			for _, f := range names {
				if nw.Node(f).Cover.IsZero() {
					continue
				}
				for _, d := range names {
					if d == f || nw.DependsOn(d, f) {
						continue
					}
					for _, compl := range []bool{false, true} {
						got := opt.PlanAlgebraicResub(nw, f, d, compl)
						want := opt.PlanAlgebraicResubUnfiltered(nw, f, d, compl)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s after Script %s, f=%s d=%s complement=%v: prefiltered plans %v, reference %v",
								name, prep.label, f, d, compl, got, want)
						}
						if compl && len(want) > 0 {
							planned++
						}
					}
				}
			}
		}
	}
	if planned == 0 {
		t.Fatal("no pair planned anything: the comparison checked nothing")
	}

	// A divisor with an inessential literal on a signal f does not read:
	// d = a + b + ax is a + b, whose complement a'b' reads only f's
	// signals, so the complement phase divides f = a'b'c + a'b'e while the
	// positive phase is skipped.
	nw := network.New("inessential")
	for _, pi := range []string{"a", "b", "c", "e", "x"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d", []string{"a", "b", "x"}, cube.ParseCover(3, "a + b + ac"))
	nw.AddNode("f", []string{"a", "b", "c", "e"}, cube.ParseCover(4, "a'b'c + a'b'd"))
	nw.AddPO("d")
	nw.AddPO("f")
	got := opt.PlanAlgebraicResub(nw, "f", "d", true)
	want := opt.PlanAlgebraicResubUnfiltered(nw, "f", "d", true)
	if len(want) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("inessential divisor literal: prefiltered plans %v, reference %v (want one complement-phase plan)", got, want)
	}
}
