package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/network"
)

// windowTrialTally counts what checkWindowTrials exercised, so the tests
// can reject a vacuous pass.
type windowTrialTally struct {
	trials  int // candidates planned on both paths
	plans   int // trials that produced a plan
	removed int // plans whose division removed at least one wire
	deeper  int // trials whose reference window was deeper than the carve
	cycles  int // readers of f offered as divisors, which both paths refused
}

// checkWindowTrials plans every enumerated candidate of every node of nw
// on the default path (the window carved from nw, at most regionReach
// deep) and on the reference path (Options.noOverlay: the full-depth
// window materialized as a network and rebuilt per RAR pass), and fails
// unless the plans agree byte for byte. For every trial it also builds
// the carved window's netlist at the full depth straight from nw and
// compares it gate for gate with a build of the materialized window.
// Finally every node that reads f within two steps is offered as a plain
// divisor, which would close a cycle. Both paths must agree on it, and
// must refuse it whenever the window holds the path: a direct reader at
// every depth, a two-step reader from depth 2. (A longer path may leave
// the capped window while the reference still sees it, but candidate
// enumeration never offers a node that reads f.)
func checkWindowTrials(t *testing.T, label string, nw *network.Network, opt Options, tally *windowTrialTally) {
	t.Helper()
	ref := opt
	ref.noOverlay = true
	nc := newNodeCache(nw)
	var es enumScratch
	sc, scRef := newScratch(), newScratch()
	for _, f := range nw.SortedNodeNames() {
		if nw.Node(f).Cover.IsZero() {
			continue
		}
		for _, c := range candidateDivisors(nw, nc, f, opt, &es) {
			site := fmt.Sprintf("%s depth %d cfg %v pos=%v: f=%s d=%s form=%d",
				label, opt.WindowDepth, opt.Config, opt.POS, f, c.name, c.form)
			got, gotOK := planPair(sc, nw, f, c, opt)
			want, wantOK := planPair(scRef, nw, f, c, ref)
			if err := comparePlans(nw, got, gotOK, want, wantOK); err != nil {
				t.Fatalf("%s: default path differs from the reference window: %v", site, err)
			}
			tally.trials++
			if gotOK {
				tally.plans++
				if got.removed > 0 {
					tally.removed++
				}
			}

			fid, _ := nw.IDOf(f)
			did, _ := nw.IDOf(c.name)
			var w window
			if len(w.carve(nw, fid, did, opt.WindowDepth).nodes) > len(new(window).carve(nw, fid, did, regionReach).nodes) {
				tally.deeper++
			}
			direct := sc.bFresh.BuildRegion(nw, w.ins, w.nodes, w.outs[:])
			mat := netlist.NewBuilder().Build(windowFor(scRef, nw, f, c.name, opt.WindowDepth))
			if err := sameNetlist(direct, mat); err != nil {
				t.Fatalf("%s: direct window build differs from the materialized window's: %v", site, err)
			}
		}
		fid, _ := nw.IDOf(f)
		type reader struct {
			id    network.SigID
			steps int
		}
		var readers []reader
		for _, u := range nw.FanoutsOf(fid) {
			readers = append(readers, reader{u, 1})
			for _, v := range nw.FanoutsOf(u) {
				readers = append(readers, reader{v, 2})
			}
		}
		for _, u := range readers {
			c := candidate{name: nw.SigName(u.id)}
			got, gotOK := planPair(sc, nw, f, c, opt)
			want, wantOK := planPair(scRef, nw, f, c, ref)
			if err := comparePlans(nw, got, gotOK, want, wantOK); err != nil {
				t.Fatalf("%s depth %d cfg %v: f=%s reader %s: %v", label, opt.WindowDepth, opt.Config, f, c.name, err)
			}
			if u.steps > opt.WindowDepth {
				continue
			}
			if gotOK {
				t.Fatalf("%s depth %d cfg %v: f=%s divided by its %d-step reader %s",
					label, opt.WindowDepth, opt.Config, f, u.steps, c.name)
			}
			tally.cycles++
		}
	}
}

// sameNetlist reports the first difference between two builds: gate
// kinds, names, fanins and fanout lists (in order), the primary outputs,
// and every node's gates.
func sameNetlist(a, b *netlist.Build) error {
	x, y := a.NL, b.NL
	if x.NumGates() != y.NumGates() {
		return fmt.Errorf("%d gates != %d", x.NumGates(), y.NumGates())
	}
	for g := 0; g < x.NumGates(); g++ {
		if x.KindOf(g) != y.KindOf(g) || x.NameOf(g) != y.NameOf(g) || x.IsPO(g) != y.IsPO(g) {
			return fmt.Errorf("gate %d: %v %q po=%v != %v %q po=%v",
				g, x.KindOf(g), x.NameOf(g), x.IsPO(g), y.KindOf(g), y.NameOf(g), y.IsPO(g))
		}
		if fmt.Sprint(x.Fanins(g)) != fmt.Sprint(y.Fanins(g)) {
			return fmt.Errorf("gate %d fanins %v != %v", g, x.Fanins(g), y.Fanins(g))
		}
		if fmt.Sprint(x.Fanouts(g)) != fmt.Sprint(y.Fanouts(g)) {
			return fmt.Errorf("gate %d fanouts %v != %v", g, x.Fanouts(g), y.Fanouts(g))
		}
	}
	if fmt.Sprint(x.POs, x.PONames) != fmt.Sprint(y.POs, y.PONames) {
		return fmt.Errorf("POs %v %v != %v %v", x.POs, x.PONames, y.POs, y.PONames)
	}
	if len(x.Signal) != len(y.Signal) || len(a.Nodes) != len(b.Nodes) {
		return fmt.Errorf("%d signals, %d nodes != %d, %d", len(x.Signal), len(a.Nodes), len(y.Signal), len(b.Nodes))
	}
	for name, g := range x.Signal {
		if h, ok := y.Signal[name]; !ok || h != g {
			return fmt.Errorf("signal %q: gate %d != %d", name, g, h)
		}
	}
	for name, ng := range a.Nodes {
		if mg := b.Nodes[name]; mg == nil || fmt.Sprint(*ng) != fmt.Sprint(*mg) {
			return fmt.Errorf("node %q gates %v != %v", name, ng, mg)
		}
	}
	return nil
}

// TestWindowTrialMatchesReference is the windowed trial path's proof
// obligation. The default path carves the window as SigID lists, caps it
// at regionReach, and builds its netlist straight from the live network;
// the reference (noOverlay, the path Options.Audit replays every trial
// on) materializes the full-depth window. Every enumerated candidate must
// get the same plan on both, at every depth, and the direct build must
// number the gates exactly as a build of the materialized window does.
func TestWindowTrialMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	nets := map[string]*network.Network{"forest": coneForestDAG(6)}
	for i := 0; i < 4; i++ {
		nets[fmt.Sprintf("rand%d", i)] = randomDAG(r, 5, 16)
	}
	var tally windowTrialTally
	for _, name := range []string{"forest", "rand0", "rand1", "rand2", "rand3"} {
		for depth := 1; depth <= 5; depth++ {
			for _, cfg := range []Config{Basic, Extended} {
				for _, pos := range []bool{false, true} {
					opt := Options{Config: cfg, POS: pos, WindowDepth: depth}
					checkWindowTrials(t, name, nets[name], opt, &tally)
				}
			}
		}
	}
	t.Logf("%+v", tally)
	if tally.plans == 0 || tally.removed == 0 || tally.deeper == 0 || tally.cycles == 0 {
		t.Fatalf("vacuous run: %+v", tally)
	}
}

// FuzzWindowTrial runs checkWindowTrials on random DAGs over the window
// depth, the configuration and the POS switch.
func FuzzWindowTrial(f *testing.F) {
	f.Add(int64(2718), uint8(3), uint8(14), uint8(2), uint8(0))
	f.Add(int64(141), uint8(2), uint8(7), uint8(3), uint8(3))
	f.Add(int64(5151), uint8(5), uint8(17), uint8(4), uint8(1))
	f.Add(int64(97531), uint8(4), uint8(11), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nPI, nNode, depth, flags uint8) {
		nw := randomDAG(rand.New(rand.NewSource(seed)), 2+int(nPI)%7, 2+int(nNode)%18)
		opt := Options{Config: Basic, POS: flags&2 != 0, WindowDepth: 1 + int(depth)%5}
		if flags&1 != 0 {
			opt.Config = Extended
		}
		checkWindowTrials(t, fmt.Sprintf("seed %d", seed), nw, opt, new(windowTrialTally))
	})
}
