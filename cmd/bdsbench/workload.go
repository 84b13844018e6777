package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/script"
	"repro/internal/verify"
)

// workload names one set of inputs and the optimisation recipe run on them.
type workload struct {
	name  string
	setup func(cfg runConfig, rec *recorder, parent int) (*inputs, error)
}

// workloads lists the benchmark's workloads in run order.
var workloads = []workload{
	{"paper_tables", setupPaperTables},
	{"cone10k", generated("cone", 10_000, 0, 500)},
	{"cone100k", generated("cone", 100_000, 0, 500)},
	{"rand10k", generated("rand", 10_000, 64, 300)},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is what one set-up builds: the cases a repetition optimises.
type inputs struct {
	cases []benchCase
	// nets are the distinct input networks, sampled by the layer probes.
	nets []*network.Network
	// notes are printed with the run's results.
	notes []string
}

// caseKind selects how a case runs and how its output is checked.
type caseKind int

const (
	// tableCell is one Table II–IV cell: one resub call on a prepared
	// circuit, checked exhaustively by verify.Check.
	tableCell caseKind = iota
	// flowCell is one Table V cell: script.Algebraic with the resub step
	// plugged in, checked exhaustively by verify.Check.
	flowCell
	// scaleCase is one generated circuit optimised with the scale recipe,
	// checked by a random-simulation miter and network.Check.
	scaleCase
)

// benchCase is one optimisation the benchmark times and checks.
type benchCase struct {
	label string
	kind  caseKind
	// sis selects the SIS algebraic baseline instead of core.Substitute.
	sis bool
	// opts are the core.Substitute options; Workers is set per repetition.
	opts  core.Options
	input *network.Network
	// golden is the factored-literal count the output must have (-1: none).
	golden int
}

// paperAlgs are the table columns, as in internal/exp.
var paperAlgs = []string{"sis", "basic", "ext", "extgdc"}

var paperConfig = map[string]core.Config{"basic": core.Basic, "ext": core.Extended, "extgdc": core.ExtendedGDC}

// smokeCircuits is the paper_tables subset of a -smoke run (Table II only).
var smokeCircuits = []string{"c17", "ripple4", "mult3", "maj5"}

// setupPaperTables builds Tables II–V over the whole suite: Scripts A/B/C
// prepare Tables II–IV, and Table V starts from the raw circuit. Table II
// cells carry their golden literal counts.
func setupPaperTables(cfg runConfig, rec *recorder, parent int) (*inputs, error) {
	golden, err := loadGolden(cfg.golden)
	if err != nil {
		return nil, err
	}
	tables, circuits := []int{2, 3, 4, 5}, bench.Names()
	if cfg.smoke {
		tables, circuits = []int{2}, smokeCircuits
	}
	in := &inputs{}
	for _, table := range tables {
		for _, name := range circuits {
			id := rec.begin("bench.Get", parent, 0)
			nw := bench.Get(name)
			rec.end(id)
			kind := flowCell
			if table != 5 {
				kind = tableCell
				id := rec.begin("script.Prepare", parent, 0)
				script.Prepare(table, nw)
				rec.end(id)
			}
			in.nets = append(in.nets, nw)
			for _, alg := range paperAlgs {
				c := benchCase{
					label:  fmt.Sprintf("table%d/%s/%s", table, name, alg),
					kind:   kind,
					sis:    alg == "sis",
					opts:   core.Options{Config: paperConfig[alg], POS: true, Pool: true},
					input:  nw,
					golden: -1,
				}
				if table == 2 {
					want, ok := golden[name][alg]
					if !ok {
						return nil, fmt.Errorf("golden table %s has no %s/%s entry", cfg.golden, name, alg)
					}
					c.golden = want
				}
				in.cases = append(in.cases, c)
			}
		}
	}
	return in, nil
}

// loadGolden reads the committed Table II literal counts.
func loadGolden(path string) (map[string]map[string]int, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden table: %w", err)
	}
	var g struct {
		Table    int                       `json:"table"`
		Circuits map[string]map[string]int `json:"circuits"`
	}
	if err := json.Unmarshal(buf, &g); err != nil {
		return nil, fmt.Errorf("parse golden table %s: %w", path, err)
	}
	if g.Table != 2 {
		return nil, fmt.Errorf("golden table %s is for table %d, want 2", path, g.Table)
	}
	return g.Circuits, nil
}

// scaleOptions is BenchmarkSubstituteScale's recipe: windowed basic
// division, one pass, capped trials, no signature filter.
var scaleOptions = core.Options{Config: core.Basic, WindowDepth: 3, NoSigFilter: true, MaxPasses: 1, MaxDivisorTrials: 8}

// generated returns the set-up of a bench.Generate workload: gates gates
// (smokeGates under -smoke) of the given shape, seeded by the run's seed.
func generated(shape string, gates, pis, smokeGates int) func(runConfig, *recorder, int) (*inputs, error) {
	return func(cfg runConfig, rec *recorder, parent int) (*inputs, error) {
		gates := gates
		if cfg.smoke {
			gates = smokeGates
		}
		id := rec.begin("bench.Generate", parent, 0)
		nw, err := bench.Generate(shape, gates, pis, cfg.seed)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		in := &inputs{
			cases: []benchCase{{label: fmt.Sprintf("%s/%d/seed%d", shape, gates, cfg.seed), kind: scaleCase, opts: scaleOptions, input: nw, golden: -1}},
			nets:  []*network.Network{nw},
		}
		if shape == "rand" {
			in.notes = append(in.notes, fmt.Sprintf("the %d-word miter is random simulation only: rand cones reach up to %d inputs, so it is not exhaustive per cone", miterWords, pis))
		}
		return in, nil
	}
}

// instr collects what the traced repetition measures around each layer
// call; a nil *instr (untraced repetitions) measures nothing.
type instr struct {
	rec   *recorder
	tid   int
	stats core.Stats
	// mallocs counts heap objects allocated inside core.Substitute calls.
	mallocs uint64
}

// run optimises nw in place as the case prescribes, under span parent.
// Panics are recovered and returned as errors, so one bad cell counts as a
// failure instead of ending the run.
func (c *benchCase) run(nw *network.Network, workers int, ins *instr, parent int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	var rec *recorder
	tid := 0
	if ins != nil {
		rec, tid = ins.rec, ins.tid
	}
	o := c.opts
	o.Workers = workers
	// resub is the cell's resubstitution step, as internal/exp runs it:
	// script.ResubSISJ for the SIS column, core.Substitute for the others.
	resub := func(nw *network.Network, parent int) {
		if !c.sis {
			ins.substitute(nw, o, parent)
			return
		}
		id := rec.begin("opt.ResubAlgebraic", parent, tid)
		script.ResubSISJ(workers)(nw)
		rec.end(id)
	}
	if c.kind != flowCell {
		resub(nw, parent)
		return nil
	}
	flow := rec.begin("script.Algebraic", parent, tid)
	script.Algebraic(nw, func(nw *network.Network) { resub(nw, flow) })
	rec.end(flow)
	return nil
}

// substitute runs core.Substitute on nw under a span, folding the Stats it
// returns and the heap objects it allocated into ins. The per-pass times
// become attributes of the span.
func (ins *instr) substitute(nw *network.Network, o core.Options, parent int) {
	if ins == nil {
		core.Substitute(nw, o)
		return
	}
	id := ins.rec.begin("core.Substitute", parent, ins.tid)
	_, objects0 := heapAllocs()
	st := core.Substitute(nw, o)
	_, objects1 := heapAllocs()
	ins.rec.end(id)
	ins.mallocs += objects1 - objects0
	ins.stats.Accumulate(st)
	pass := make([]float64, len(st.PassTimes))
	for i, d := range st.PassTimes {
		pass[i] = d.Seconds()
	}
	ins.rec.attr(id, "pass_s", pass)
	ins.rec.attr(id, "trials", st.DivisorTrials)
	ins.rec.attr(id, "subs", st.Substitutions)
}

// check verifies the output of one case: an exhaustive verify.Check for the
// suite circuits (at most 22 inputs each), plus the golden literal count
// where one is recorded; a seeded random-simulation miter over every
// output and network.Check for generated circuits, on which verify.Check
// would fall back to an unbounded SAT miter.
func (c *benchCase) check(out *network.Network, seed int64) error {
	if c.kind == scaleCase {
		if err := miter(c.input, out, seed, miterWords); err != nil {
			return err
		}
		return out.Check()
	}
	r, err := verify.Check(c.input, out, 0)
	if err != nil {
		return err
	}
	if !r.Equivalent {
		return fmt.Errorf("output %s differs from the input", r.FailingPO)
	}
	if c.golden >= 0 {
		if got := out.FactoredLits(); got != c.golden {
			return fmt.Errorf("%d literals, golden table says %d", got, c.golden)
		}
	}
	return nil
}
