package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/netlist"
	"repro/internal/network"
	"repro/internal/opt"
	"repro/internal/script"
	"repro/internal/verify"
)

// TestFullPipelineEveryBenchmark runs the strongest configuration end to
// end on every suite circuit and verifies equivalence and literal
// non-increase.
func TestFullPipelineEveryBenchmark(t *testing.T) {
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			raw := bench.Get(name)
			nw := raw.Clone()
			script.A(nw)
			prepared := nw.Clone()
			preparedLits := nw.FactoredLits()
			st := core.Substitute(nw, core.Options{Config: core.ExtendedGDC, POS: true, Pool: true, Audit: true})
			if !verify.Equivalent(prepared, nw) {
				t.Fatalf("substitution broke equivalence (stats %+v)", st)
			}
			if nw.FactoredLits() > preparedLits {
				t.Errorf("literals grew %d → %d", preparedLits, nw.FactoredLits())
			}
			if err := nw.Check(); err != nil {
				t.Fatalf("invalid network: %v", err)
			}
		})
	}
}

// TestPooledCommitsHonourDepthBudget is the regression test for pooled
// plans committed past Options.DepthBudget: the two suite cells where a
// pooled extended division used to end the run one level too deep (pla_c
// after Script B under Extended at depth + 1, rnd_a after Script C under
// ExtendedGDC at depth + 0, both with POS and Pool) must end within their
// budget, equivalent to their input.
func TestPooledCommitsHonourDepthBudget(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		prep    func(*network.Network)
		cfg     core.Config
		slack   int
	}{
		{"pla_c", script.B, core.Extended, 1},
		{"rnd_a", script.C, core.ExtendedGDC, 0},
	} {
		nw := bench.Get(tc.circuit)
		tc.prep(nw)
		prepared := nw.Clone()
		_, depth := nw.Levels()
		budget := depth + tc.slack
		st := core.Substitute(nw, core.Options{Config: tc.cfg, POS: true, Pool: true, DepthBudget: budget, Audit: true})
		if _, d := nw.Levels(); d > budget {
			t.Errorf("%s %v: depth %d exceeds budget %d (stats %+v)", tc.circuit, tc.cfg, d, budget, st)
		}
		if !verify.Equivalent(prepared, nw) {
			t.Fatalf("%s %v: equivalence broken", tc.circuit, tc.cfg)
		}
	}
}

// TestOptimizedCircuitsRoundTripBlif writes optimized circuits as BLIF and
// reads them back.
func TestOptimizedCircuitsRoundTripBlif(t *testing.T) {
	for _, name := range []string{"csel8", "rnd_a", "pla_a", "mult3"} {
		nw := bench.Get(name)
		script.A(nw)
		core.Substitute(nw, core.Options{Config: core.Extended, Audit: true})
		s := blif.ToString(nw)
		back, err := blif.ParseString(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !verify.Equivalent(nw, back) {
			t.Errorf("%s: BLIF round trip differs", name)
		}
	}
}

// TestOptimizedCircuitsStayIrredundantish cross-checks the substitution
// output with PODEM: proportion of redundant wires should not explode.
func TestOptimizedCircuitsStayTestable(t *testing.T) {
	nw := bench.Get("rnd_a")
	script.A(nw)
	core.Substitute(nw, core.Options{Config: core.ExtendedGDC, POS: true, Audit: true})
	b := netlist.FromNetwork(nw)
	p := atpg.NewPodem(b.NL, 0)
	total, redundant := 0, 0
	for g := 0; g < b.NL.NumGates(); g++ {
		kind := b.NL.KindOf(g)
		if kind != netlist.And && kind != netlist.Or {
			continue
		}
		stuck := atpg.One
		if kind == netlist.Or {
			stuck = atpg.Zero
		}
		for pin := range b.NL.Fanins(g) {
			total++
			if _, res := p.GenerateTest(atpg.Fault{Wire: atpg.Wire{Gate: g, Pin: pin}, Stuck: stuck}); res == atpg.Redundant {
				redundant++
			}
		}
	}
	if total == 0 {
		t.Fatal("no wires")
	}
	if redundant*4 > total {
		t.Errorf("optimized circuit suspiciously redundant: %d/%d", redundant, total)
	}
}

// TestCommandPermutationsSound chains commands in several orders over one
// circuit and demands equivalence after every step.
func TestCommandPermutationsSound(t *testing.T) {
	type step struct {
		name string
		run  func(*network.Network)
	}
	steps := map[string]step{
		"el":  {"eliminate", func(n *network.Network) { n.Eliminate(0) }},
		"si":  {"simplify", func(n *network.Network) { opt.SimplifyAll(n) }},
		"gc":  {"gcx", func(n *network.Network) { opt.Gcx(n) }},
		"gk":  {"gkx", func(n *network.Network) { opt.Gkx(n) }},
		"de":  {"decomp", func(n *network.Network) { opt.Decomp(n) }},
		"rs":  {"resub-ext", func(n *network.Network) { core.Substitute(n, core.Options{Config: core.Extended, Audit: true}) }},
		"rr":  {"redundancy", func(n *network.Network) { opt.RemoveRedundancies(n, 1) }},
		"fs":  {"full-simplify", func(n *network.Network) { opt.FullSimplify(n, 1) }},
		"bdd": {"resub-bdd", func(n *network.Network) { opt.ResubBDD(n) }},
	}
	orders := [][]string{
		{"el", "si", "rs", "gk", "rs"},
		{"si", "gc", "rs", "de"},
		{"el", "rs", "rr", "si"},
		{"si", "fs", "rs", "bdd"},
		{"de", "rs", "gk", "el", "si"},
	}
	raw := bench.Get("rnd_c")
	for oi, order := range orders {
		nw := raw.Clone()
		for _, key := range order {
			s := steps[key]
			s.run(nw)
			if err := nw.Check(); err != nil {
				t.Fatalf("order %d after %s: invalid: %v", oi, s.name, err)
			}
			if !verify.Equivalent(raw, nw) {
				t.Fatalf("order %d: %s broke equivalence", oi, s.name)
			}
		}
	}
}

// TestTortureRandomNetworks is the long-running fuzz session: larger random
// networks through every configuration with equivalence checking.
func TestTortureRandomNetworks(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	r := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 8; trial++ {
		nw := tortureDAG(r, 6, 14)
		base := nw.Clone()
		for _, cfg := range []core.Config{core.Basic, core.Extended, core.ExtendedGDC} {
			c := base.Clone()
			core.Substitute(c, core.Options{Config: cfg, POS: true, Pool: true, Audit: true})
			if !verify.Equivalent(base, c) {
				t.Fatalf("trial %d cfg %v: equivalence broken\n%s", trial, cfg, c.String())
			}
		}
		// Full flow torture.
		c := base.Clone()
		script.Algebraic(c, script.ResubRAR(core.ExtendedGDC))
		if !verify.Equivalent(base, c) {
			t.Fatalf("trial %d: full flow broke equivalence", trial)
		}
	}
}

func tortureDAG(r *rand.Rand, nPI, nNode int) *network.Network {
	nw := network.New("torture")
	var signals []string
	for i := 0; i < nPI; i++ {
		name := string(rune('a' + i))
		nw.AddPI(name)
		signals = append(signals, name)
	}
	for i := 0; i < nNode; i++ {
		k := 2 + r.Intn(3)
		if k > len(signals) {
			k = len(signals)
		}
		perm := r.Perm(len(signals))[:k]
		fanins := make([]string, k)
		for j, p := range perm {
			fanins[j] = signals[p]
		}
		cov := cube.NewCover(k)
		for c := 0; c < 1+r.Intn(4); c++ {
			cb := cube.New(k)
			nLit := 0
			for v := 0; v < k; v++ {
				switch r.Intn(3) {
				case 0:
					cb.Set(v, cube.Pos)
					nLit++
				case 1:
					cb.Set(v, cube.Neg)
					nLit++
				}
			}
			if nLit > 0 {
				cov.Add(cb)
			}
		}
		if cov.IsZero() {
			c := cube.New(k)
			c.Set(0, cube.Pos)
			cov.Add(c)
		}
		name := nw.FreshName("n")
		nw.AddNode(name, fanins, cov)
		signals = append(signals, name)
		nw.AddPO(name)
	}
	return nw
}

// TestLargeCircuitSmoke runs the strongest flow on a circuit an order of
// magnitude larger than the suite's, demonstrating scalability and
// preserving equivalence (SAT-backed verification on 20 inputs).
func TestLargeCircuitSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large smoke test skipped in -short mode")
	}
	nw := bench.Custom(18, 160, 77)
	script.A(nw)
	prepared := nw.Clone()
	before := nw.FactoredLits()
	st := core.Substitute(nw, core.Options{Config: core.Extended, POS: true, WindowDepth: 4, Audit: true})
	if !verify.Equivalent(prepared, nw) {
		t.Fatalf("equivalence broken (stats %+v)", st)
	}
	if nw.FactoredLits() > before {
		t.Errorf("literals grew %d → %d", before, nw.FactoredLits())
	}
	t.Logf("large circuit: %d nodes, lits %d → %d, %d substitutions",
		nw.NumNodes(), before, nw.FactoredLits(), st.Substitutions)
}
