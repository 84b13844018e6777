// Package repro's root test file hosts the benchmark harness that
// regenerates every table and figure of the paper's evaluation:
//
//	BenchmarkTableII..V    — the four experimental tables (Scripts A/B/C and
//	                         script.algebraic, four algorithms each)
//	BenchmarkFig2Basic     — the basic-division walkthrough of Fig. 2
//	BenchmarkTableIVotes   — the vote-table construction of Table I / Fig. 3
//	BenchmarkFig4Clique    — core-divisor selection (Fig. 4)
//	BenchmarkAblation*     — the design choices DESIGN.md calls out
//
// plus micro-benchmarks for the substrates (implications, division,
// factoring). Run `go test -bench=. -benchmem` or use cmd/experiments for
// the paper-formatted tables.
package repro_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/algebraic"
	"repro/internal/atpg"
	"repro/internal/bdd"
	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/exp"
	"repro/internal/mini"
	"repro/internal/netlist"
	"repro/internal/network"
	"repro/internal/opt"
	"repro/internal/sat"
	"repro/internal/script"
	"repro/internal/verify"
)

// --- Tables II–V ---

func benchTable(b *testing.B, table int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := exp.Run(table, nil)
		if !t.AllEquivalent() {
			b.Fatal("equivalence check failed")
		}
		init, totals := t.Totals()
		b.ReportMetric(float64(init), "lits-init")
		for _, alg := range exp.Algorithms {
			b.ReportMetric(float64(totals[alg]), "lits-"+alg)
		}
	}
}

func BenchmarkTableII(b *testing.B)  { benchTable(b, 2) }
func BenchmarkTableIII(b *testing.B) { benchTable(b, 3) }
func BenchmarkTableIV(b *testing.B)  { benchTable(b, 4) }
func BenchmarkTableV(b *testing.B)   { benchTable(b, 5) }

// --- Figures ---

// BenchmarkFig2Basic times the paper's basic-division walkthrough.
func BenchmarkFig2Basic(b *testing.B) {
	nw := network.New("fig2")
	for _, pi := range []string{"a", "b", "c", "d", "e"} {
		nw.AddPI(pi)
	}
	nw.AddNode("g", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("f", []string{"a", "b", "c", "d", "e"}, cube.ParseCover(5, "abc + abd + e"))
	nw.AddPO("f")
	nw.AddPO("g")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, ok := core.BasicDivide(nw, "f", "g", core.Basic)
		if !ok || res.WiresRemoved < 4 {
			b.Fatal("division regressed")
		}
	}
}

// BenchmarkTableIVotes times vote-table construction (Table I / Fig. 3).
func BenchmarkTableIVotes(b *testing.B) {
	nw := network.New("fig3")
	for _, pi := range []string{"a", "b", "c", "d", "e"} {
		nw.AddPI(pi)
	}
	nw.AddNode("h", []string{"a", "b", "e"}, cube.ParseCover(3, "a + b + c"))
	nw.AddNode("f", []string{"a", "b", "c", "d"}, cube.ParseCover(4, "a + bc + bd"))
	nw.AddPO("f")
	nw.AddPO("h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		votes, ok := core.VoteTable(nw, "f", "h", core.Extended)
		if !ok || len(votes) == 0 {
			b.Fatal("vote table regressed")
		}
	}
}

// BenchmarkFig4Clique times core-divisor selection over the vote table.
func BenchmarkFig4Clique(b *testing.B) {
	nw := network.New("fig4")
	for _, pi := range []string{"a", "b", "c", "d", "e"} {
		nw.AddPI(pi)
	}
	nw.AddNode("h", []string{"a", "b", "e"}, cube.ParseCover(3, "a + b + c"))
	nw.AddNode("f", []string{"a", "b", "c", "d"}, cube.ParseCover(4, "a + bc + bd"))
	nw.AddPO("f")
	nw.AddPO("h")
	votes, ok := core.VoteTable(nw, "f", "h", core.Extended)
	if !ok {
		b.Fatal("votes failed")
	}
	fn, hn := nw.Node("f"), nw.Node("h")
	union := []string{"a", "b", "c", "d", "e"}
	fU := network.RemapCover(fn.Cover, fn.Fanins, union)
	hU := network.RemapCover(hn.Cover, hn.Fanins, union)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mask, _ := core.SelectCore(votes, hU.Cubes, fU)
		if mask == 0 {
			b.Fatal("selection regressed")
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationScope compares region-local implications (ext) against
// global implications with learning (ext GDC) on the suite.
func BenchmarkAblationScope(b *testing.B) {
	for _, cfg := range []core.Config{core.Extended, core.ExtendedGDC} {
		b.Run(cfg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total := 0
				for _, name := range bench.Names() {
					nw := bench.Get(name)
					script.A(nw)
					core.Substitute(nw, core.Options{Config: cfg})
					total += nw.FactoredLits()
				}
				b.ReportMetric(float64(total), "lits")
			}
		})
	}
}

// BenchmarkAblationLearning compares recursive-learning depth 0 vs 1 for
// redundancy proofs across the suite's netlists. witnessed counts the
// faults a simulation witness settled before any implication ran.
func BenchmarkAblationLearning(b *testing.B) {
	for _, learn := range []bool{false, true} {
		name := "direct"
		if learn {
			name = "learn1"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				found, witnessed := 0, 0
				for _, bn := range bench.Names() {
					nw := bench.Get(bn)
					bl := netlist.FromNetwork(nw)
					e := atpg.NewEngine(bl.NL, atpg.Options{Learn: learn})
					for g := 0; g < bl.NL.NumGates(); g++ {
						kind := bl.NL.KindOf(g)
						if kind != netlist.And && kind != netlist.Or {
							continue
						}
						stuck := atpg.One
						if kind == netlist.Or {
							stuck = atpg.Zero
						}
						for pin := range bl.NL.Fanins(g) {
							if atpg.Untestable(e, bl.NL, atpg.Fault{Wire: atpg.Wire{Gate: g, Pin: pin}, Stuck: stuck}, -1) {
								found++
							}
						}
					}
					witnessed += e.Witnessed()
				}
				b.ReportMetric(float64(found), "untestable")
				b.ReportMetric(float64(witnessed), "witnessed")
			}
		})
	}
}

// BenchmarkAblationPOS compares SOP-only substitution against SOP+POS.
func BenchmarkAblationPOS(b *testing.B) {
	for _, pos := range []bool{false, true} {
		name := "sop"
		if pos {
			name = "sop+pos"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total := 0
				for _, bn := range bench.Names() {
					nw := bench.Get(bn)
					script.A(nw)
					core.Substitute(nw, core.Options{Config: core.Basic, POS: pos})
					total += nw.FactoredLits()
				}
				b.ReportMetric(float64(total), "lits")
			}
		})
	}
}

// BenchmarkAblationClique compares the intersection-closure core selection
// against a naive single-best-vote core on the vote table of Fig. 3.
func BenchmarkAblationClique(b *testing.B) {
	nw := network.New("fig4")
	for _, pi := range []string{"a", "b", "c", "d", "e"} {
		nw.AddPI(pi)
	}
	nw.AddNode("h", []string{"a", "b", "e"}, cube.ParseCover(3, "a + b + c"))
	nw.AddNode("f", []string{"a", "b", "c", "d"}, cube.ParseCover(4, "a + bc + bd"))
	nw.AddPO("f")
	nw.AddPO("h")
	votes, _ := core.VoteTable(nw, "f", "h", core.Extended)
	fn, hn := nw.Node("f"), nw.Node("h")
	union := []string{"a", "b", "c", "d", "e"}
	fU := network.RemapCover(fn.Cover, fn.Fanins, union)
	hU := network.RemapCover(hn.Cover, hn.Fanins, union)
	b.Run("closure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, score := core.SelectCore(votes, hU.Cubes, fU)
			b.ReportMetric(float64(score), "wires")
		}
	})
	b.Run("single-vote", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Naive: take the first valid vote's candidate as the core.
			best := 0
			for _, v := range votes {
				if v.Valid {
					n := 0
					for _, w := range votes {
						if w.Valid && w.Candidate == v.Candidate {
							n++
						}
					}
					if n > best {
						best = n
					}
				}
			}
			b.ReportMetric(float64(best), "wires")
		}
	})
}

// --- Substrate micro-benchmarks ---

// BenchmarkImplicationEngine times one fault test on csel8. The propagate
// leg runs the implication engine itself (Reset, MandatoryAssignments and
// Propagate); the untestable leg makes the public call, which a simulation
// witness settles before any implication runs when the fault is testable.
func BenchmarkImplicationEngine(b *testing.B) {
	nw := bench.Get("csel8")
	bl := netlist.FromNetwork(nw)
	fault := atpg.Fault{Wire: atpg.Wire{Gate: bl.NL.POs[0], Pin: 0}, Stuck: atpg.One}
	b.Run("propagate", func(b *testing.B) {
		e := atpg.NewEngine(bl.NL, atpg.Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Reset()
			if atpg.MandatoryAssignments(e, bl.NL, fault, -1) {
				e.Propagate()
			}
		}
	})
	b.Run("untestable", func(b *testing.B) {
		e := atpg.NewEngine(bl.NL, atpg.Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			atpg.Untestable(e, bl.NL, fault, -1)
		}
	})
}

// BenchmarkWeakDivision and BenchmarkFactoring warm the kernel's pooled
// arena before timing, so a -benchtime 1x run (the CI bench step) reads
// the steady state instead of the arena's first growth.
func BenchmarkWeakDivision(b *testing.B) {
	f := cube.ParseCover(8, "ace + acf + ade + adf + bce + bcf + bde + bdf + g + h")
	d := cube.ParseCover(8, "a + b")
	algebraic.WeakDivide(f, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, _ := algebraic.WeakDivide(f, d)
		if q.IsZero() {
			b.Fatal("division regressed")
		}
	}
}

func BenchmarkKernels(b *testing.B) {
	f := cube.ParseCover(8, "ace + acf + ade + adf + bce + bcf + bde + bdf + gh")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ks := algebraic.Kernels(f, 0); len(ks) == 0 {
			b.Fatal("kernels regressed")
		}
	}
}

func BenchmarkFactoring(b *testing.B) {
	f := cube.ParseCover(8, "ace + acf + ade + adf + bce + bcf + bde + bdf + gh")
	algebraic.FactorLits(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if algebraic.FactorLits(f) == 0 {
			b.Fatal("factoring regressed")
		}
	}
}

// BenchmarkComplement measures the cube complement kernel: a small
// six-cube SOP; the wide product of sums, the complement of eight cubes on
// disjoint supports over 23 variables, which expands to 4374 cubes; and
// the same cover rejected by a 24-cube ComplementAtMost budget, the way
// the engine's size caps reject it. Each leg warms the kernel's pooled
// buffers before timing, so a -benchtime 1x run reads the steady state:
// the result's header slice and word block, and nothing for a rejection.
func BenchmarkComplement(b *testing.B) {
	small := cube.ParseCover(10, "abc + de'f + ghi' + jb' + ac'e + fg'j")
	wide := cube.ParseCover(23, "abc + def + ghi + jkl + mno + pqr + stu + vw")
	b.Run("sop6", func(b *testing.B) {
		small.Complement()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if small.Complement().IsZero() {
				b.Fatal("complement regressed")
			}
		}
	})
	b.Run("wide_pos", func(b *testing.B) {
		wide.Complement()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if wide.Complement().NumCubes() != 4374 {
				b.Fatal("complement regressed")
			}
		}
	})
	b.Run("wide_pos_atmost24", func(b *testing.B) {
		wide.ComplementAtMost(24)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := wide.ComplementAtMost(24); ok {
				b.Fatal("ComplementAtMost accepted a 4374-cube complement")
			}
		}
	})
}

// BenchmarkMinimize is shaped like POS division's final minimization: Minimize
// of a complement cover, here the 31-cube complement of
// BenchmarkComplement's sop6, which it shrinks to 26 cubes. It warms the
// minimizer's pooled scratch before timing, so a -benchtime 1x run reads
// the steady state: only the result's header slice and word block.
func BenchmarkMinimize(b *testing.B) {
	f := cube.ParseCover(10, "abc + de'f + ghi' + jb' + ac'e + fg'j").Complement()
	mini.Minimize(f, mini.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mini.Minimize(f, mini.Options{}).NumCubes() != 26 {
			b.Fatal("minimizer regressed")
		}
	}
}

// BenchmarkSimplifyNode warms the minimizer's and the complement's pooled
// scratch before timing, so a -benchtime 1x run (the CI bench step) reads
// the steady state instead of the pools' first growth.
func BenchmarkSimplifyNode(b *testing.B) {
	nw := bench.Get("sym6")
	opt.SimplifyAll(nw.Clone())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := nw.Clone()
		opt.SimplifyAll(c)
	}
}

func BenchmarkNetlistBuild(b *testing.B) {
	nw := bench.Get("csel8")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bl := netlist.FromNetwork(nw); bl.NL.NumGates() == 0 {
			b.Fatal("netlist regressed")
		}
	}
}

func BenchmarkSimulate(b *testing.B) {
	nw := bench.Get("csel8")
	in := map[string]uint64{}
	for i, pi := range nw.PIs() {
		in[pi] = uint64(i) * 0x9E3779B97F4A7C15
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := nw.Simulate(in); len(v) == 0 {
			b.Fatal("simulate regressed")
		}
	}
}

// BenchmarkAblationDivision compares the three division engines on the
// suite after Script A: SIS algebraic, BDD-based (related work [14]), and
// the paper's RAR-based Boolean substitution.
func BenchmarkAblationDivision(b *testing.B) {
	engines := []struct {
		name string
		run  func(*network.Network)
	}{
		{"algebraic", func(n *network.Network) { opt.ResubAlgebraic(n, true) }},
		{"bdd", func(n *network.Network) { opt.ResubBDD(n) }},
		{"rar-ext", func(n *network.Network) { core.Substitute(n, core.Options{Config: core.Extended, POS: true}) }},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total := 0
				for _, name := range bench.Names() {
					nw := bench.Get(name)
					script.A(nw)
					eng.run(nw)
					total += nw.FactoredLits()
				}
				b.ReportMetric(float64(total), "lits")
			}
		})
	}
}

// BenchmarkAblationRedundancyRemoval measures classic whole-network RAR as
// a standalone pass, at learning depth 0 and 1.
func BenchmarkAblationRedundancyRemoval(b *testing.B) {
	for _, depth := range []int{0, 1} {
		b.Run(map[int]string{0: "direct", 1: "learn1"}[depth], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				removed := 0
				for _, name := range bench.Names() {
					nw := bench.Get(name)
					removed += opt.RemoveRedundancies(nw, depth)
				}
				b.ReportMetric(float64(removed), "wires")
			}
		})
	}
}

// BenchmarkSATMiter measures the CDCL equivalence path on a wide circuit.
func BenchmarkSATMiter(b *testing.B) {
	nw := bench.Get("rnd_d") // 12 PIs — use verify's SAT path explicitly
	opt1 := nw.Clone()
	script.A(opt1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := verify.Check(nw, opt1, 2)
		if err != nil || !r.Equivalent {
			b.Fatal("verification regressed")
		}
	}
}

// BenchmarkAblationAcceptance measures the paper's Table V explanation:
// first-positive-gain greedy acceptance versus best-gain acceptance, per
// configuration, across the suite (Script A preparation).
func BenchmarkAblationAcceptance(b *testing.B) {
	for _, cfg := range []core.Config{core.Extended, core.ExtendedGDC} {
		for _, best := range []bool{false, true} {
			name := cfg.String() + "/first-positive"
			if best {
				name = cfg.String() + "/best-gain"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					total := 0
					for _, bn := range bench.Names() {
						nw := bench.Get(bn)
						script.A(nw)
						core.Substitute(nw, core.Options{Config: cfg, POS: true, BestGain: best})
						total += nw.FactoredLits()
					}
					b.ReportMetric(float64(total), "lits")
				}
			})
		}
	}
}

// --- Additional substrate micro-benchmarks ---

func BenchmarkSATSolverPHP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sat.New()
		const P, H = 7, 6
		var p [P][H]int
		for x := 0; x < P; x++ {
			lits := []int{}
			for j := 0; j < H; j++ {
				p[x][j] = s.NewVar()
				lits = append(lits, p[x][j])
			}
			s.AddClause(lits...)
		}
		for j := 0; j < H; j++ {
			for x := 0; x < P; x++ {
				for k := x + 1; k < P; k++ {
					s.AddClause(-p[x][j], -p[k][j])
				}
			}
		}
		if _, res := s.Solve(); res != sat.Unsat {
			b.Fatal("PHP(7,6) must be UNSAT")
		}
	}
}

func BenchmarkBDDBuildMult(b *testing.B) {
	nw := bench.Get("mult3")
	pis := nw.PIs()
	cov := nw.GlobalCover(nw.POs()[2], pis)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := bdd.NewManager(len(pis))
		if m.FromCover(cov) == bdd.Zero {
			b.Fatal("unexpected constant")
		}
	}
}

func BenchmarkPodemC17(b *testing.B) {
	nw := bench.Get("c17")
	nl := netlist.FromNetwork(nw).NL
	p := atpg.NewPodem(nl, 0)
	faults := atpg.AllFaults(nl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range faults {
			p.GenerateTest(f)
		}
	}
}

func BenchmarkFaultSimulation(b *testing.B) {
	nw := bench.Get("csel8")
	nl := netlist.FromNetwork(nw).NL
	faults := atpg.AllFaults(nl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atpg.SimulateFaults(nl, faults, 4, 7)
	}
}

func BenchmarkExactMinimize(b *testing.B) {
	f := cube.ParseCover(6, "abc + abd + a'ce + b'df + cef + ab'c'")
	dc := cube.NewCover(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := mini.ExactMinimize(f, dc, 0); !ok {
			b.Fatal("capped")
		}
	}
}

func BenchmarkExactDCSimplify(b *testing.B) {
	base := bench.Get("rnd_a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := base.Clone()
		opt.ExactDCSimplify(nw, 0)
	}
}

func BenchmarkGoodFactor(b *testing.B) {
	f := cube.ParseCover(8, "ace + acf + ade + adf + bce + bcf + bde + bdf + gh")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if algebraic.GoodFactorLits(f) == 0 {
			b.Fatal("regressed")
		}
	}
}

// BenchmarkAblationWindow measures windowed vs whole-network division on
// the largest suite circuits: quality (literals) vs wall time. Basic
// division's implications stay in the dividend's and divisor's region,
// which reaches two levels into a window, so depth2 and depth4 must report
// the same lits (core.Options.WindowDepth).
func BenchmarkAblationWindow(b *testing.B) {
	for _, depth := range []int{0, 1, 2, 4} {
		name := "whole"
		if depth > 0 {
			name = "depth" + string(rune('0'+depth))
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total := 0
				for _, bn := range []string{"rnd_d", "csel8", "mult3", "pla_c"} {
					nw := bench.Get(bn)
					script.A(nw)
					core.Substitute(nw, core.Options{Config: core.Basic, WindowDepth: depth})
					total += nw.FactoredLits()
				}
				b.ReportMetric(float64(total), "lits")
			}
		})
	}
}

func BenchmarkSATSweep(b *testing.B) {
	base := bench.Get("csel8")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := base.Clone()
		if opt.SATSweep(nw) == 0 {
			b.Fatal("no merges on csel8")
		}
	}
}

// BenchmarkSubstituteParallel measures the plan/commit engine's worker
// scaling on the largest suite circuits: identical work at every worker
// count (the committed networks and every Stats counter are identical —
// see TestSubstituteWorkerCountInvariant), so the wall-clock ratio between
// w1 and wN is the engine's parallel speedup. These circuits rarely fill a
// batch with two claiming members, so most nodes run the serial per-node
// path and the ratio stays near 1. The lits and trials metrics are
// reported so perf trajectories can confirm results did not move.
func BenchmarkSubstituteParallel(b *testing.B) {
	circuits := []string{"rnd_d", "rnd_e", "csel8", "mult3", "pla_c"}
	prepared := make([]*network.Network, len(circuits))
	for i, name := range circuits {
		nw := bench.Get(name)
		script.A(nw)
		prepared[i] = nw
	}
	for _, workers := range []int{1, 2, 4, 8} {
		name := map[int]string{1: "w1", 2: "w2", 4: "w4", 8: "w8"}[workers]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				total, trials := 0, 0
				for _, base := range prepared {
					nw := base.Clone()
					st := core.Substitute(nw, core.Options{
						Config: core.Extended, POS: true, Pool: true, Workers: workers,
					})
					total += nw.FactoredLits()
					trials += st.DivisorTrials
				}
				b.ReportMetric(float64(total), "lits")
				b.ReportMetric(float64(trials), "trials")
			}
		})
	}
}

// BenchmarkSubstituteScale measures worker scaling on size-tiered generated
// circuits (bench.Generate, regenerated in-process from the seeded recipe —
// nothing this size is committed). The cone forest is the batch
// scheduler's target regime: cones are pairwise disjoint, so whole batches
// of speculative trials commit without conflict and extra workers do
// useful work. The per-tier wN/w1 wall-clock ratios are the committed
// scaling floors that `benchreg -compare` hard-fails on
// (testdata/bench/BENCH_substitute.json, "scaling_floors"). The rand10k
// tier is entangled random logic: overlapping claims end batches early
// and over-cap fanout cones run as serial solos, so it tracks the
// per-trial and phase-A cost under frequent claim conflicts, and its w2
// leg shows what a second worker buys there. Options keep the
// per-trial cost size-independent (windowed basic division, one pass,
// capped trials) so the tiers measure scheduling and trials, not
// algorithmic tails.
func BenchmarkSubstituteScale(b *testing.B) {
	tiers := []struct {
		name    string
		shape   string
		gates   int
		pis     int
		workers []int
	}{
		{"cone10k", "cone", 10_000, 0, []int{1, 2, 4, 8}},
		{"cone100k", "cone", 100_000, 0, []int{1, 2, 4, 8}},
		{"rand10k", "rand", 10_000, 64, []int{1, 2}},
	}
	for _, tier := range tiers {
		base, err := bench.Generate(tier.shape, tier.gates, tier.pis, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range tier.workers {
			b.Run(fmt.Sprintf("%s/w%d", tier.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					nw := base.Clone()
					b.StartTimer()
					st := core.Substitute(nw, core.Options{
						Config: core.Basic, WindowDepth: 3,
						MaxPasses: 1, MaxDivisorTrials: 8,
						Workers: workers,
					})
					b.ReportMetric(float64(st.Substitutions), "subs")
					b.ReportMetric(float64(st.BatchCommits), "bcommits")
					b.ReportMetric(float64(st.SpeculatedTrials), "spec")
				}
			})
		}
	}
}

// BenchmarkPlannerBookkeeping measures one sweep of the planner's per-node
// bookkeeping — divisor-candidate enumeration through the SigID-indexed
// node cache plus factored-literal costing of each dividend and candidate
// — over the suite circuits, with no trials and no commits. allocs/op is
// the headline metric: this state used to live in per-node string-keyed
// maps, so allocation growth here means the bookkeeping regressed back to
// name hashing (the same surface the idmap/hotalloc analyzers guard
// statically). cands confirms the enumeration did not move.
func BenchmarkPlannerBookkeeping(b *testing.B) {
	circuits := []string{"rnd_d", "rnd_e", "csel8", "mult3", "pla_c"}
	prepared := make([]*network.Network, len(circuits))
	for i, name := range circuits {
		nw := bench.Get(name)
		script.A(nw)
		prepared[i] = nw
	}
	opt := core.Options{Config: core.Extended, POS: true, Pool: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, lits := 0, 0
		for _, nw := range prepared {
			c, l := core.PlannerBookkeepingProbe(nw, opt)
			cands += c
			lits += l
		}
		if cands == 0 || lits == 0 {
			b.Fatal("probe found no candidates — bookkeeping regressed")
		}
		b.ReportMetric(float64(cands), "cands")
	}
}

// BenchmarkNodeLookup compares the two node-resolution paths of the
// dense-ID core on the committed 10k-gate circuit
// (testdata/custom_64_10000_1.blif, regenerate with
// `blifgen -gates 10000 -pi 64 -seed 1`): "name" resolves every node
// through the symbol table (map lookup, the parse/print-boundary path),
// "id" walks the same nodes by SigID (slice index, the engine hot path).
// The ID path beating the name path is the refactor's acceptance bar.
func BenchmarkNodeLookup(b *testing.B) {
	data, err := os.ReadFile("testdata/custom_64_10000_1.blif")
	if err != nil {
		b.Fatal(err)
	}
	nw, err := blif.ParseString(string(data))
	if err != nil {
		b.Fatal(err)
	}
	names := nw.TopoOrder()
	ids := nw.TopoOrderIDs()
	b.Run("name", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			total := 0
			for _, name := range names {
				total += len(nw.Node(name).Fanins)
			}
			if total == 0 {
				b.Fatal("lookup regressed")
			}
		}
	})
	b.Run("id", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			total := 0
			for _, id := range ids {
				if nw.NodeByID(id) == nil {
					b.Fatal("lookup regressed")
				}
				total += len(nw.FaninIDsOf(id))
			}
			if total == 0 {
				b.Fatal("lookup regressed")
			}
		}
	})
}
