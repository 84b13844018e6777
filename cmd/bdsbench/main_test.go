package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/exp"
	"repro/internal/network"
	"repro/internal/script"
)

const (
	specPath   = "../../BENCHMARK.json"
	goldenPath = "../../testdata/golden/experiments.json"
)

func smokeConfig(seed int64, trace bool) runConfig {
	return runConfig{seed: seed, seconds: 1, trace: trace, smoke: true, workers: runtime.NumCPU(), golden: goldenPath}
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// lastLine parses the result line a run prints last.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return line
}

// Every workload, untraced and traced, prints exactly the metrics
// BENCHMARK.json lists for that kind of run, each in its unit, with no
// failed output.
func TestSmokeEmitsEverySpecMetric(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.name, "-smoke", "-seed", "1", "-trace", trace, "-spec", specPath, "-golden", goldenPath}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s -trace %s: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			line := lastLine(t, stdout.String())
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s -trace %s: correct=%v failed=%d attempted=%d", w.name, trace, line.Correct, line.Failed, line.Attempted)
			}
			specs := spec.EndToEnd
			if trace == "1" {
				specs = spec.PerLayer
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s -trace %s: %d metrics, spec lists %d", w.name, trace, len(line.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := line.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s -trace %s: metric %s = %+v, want unit %s", w.name, trace, s.Name, m, s.Unit)
				}
			}
		}
	}
}

// The smoke paper_tables literal total equals internal/exp's Table II
// totals on the same circuits, so the benchmark's recipe cannot drift from
// the experiment harness.
func TestSmokeLitsMatchExp(t *testing.T) {
	res, err := runWorkload(mustWorkload(t, "paper_tables"), smokeConfig(1, false))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := exp.RunWith(2, smokeCircuits, exp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, totals := tab.Totals()
	want := 0
	for _, alg := range exp.Algorithms {
		want += totals[alg]
	}
	if got := res.endToEnd["lits_out"].Value; got != float64(want) {
		t.Errorf("lits_out = %v, exp.RunWith totals = %d", got, want)
	}
}

// Spans nest within their parents, every span of a repetition carries the
// repetition's trace id, self times are never negative, and the written
// trace is valid JSON with one event per span.
func TestTraceSpansNest(t *testing.T) {
	for _, name := range []string{"paper_tables", "cone10k"} {
		res, err := runWorkload(mustWorkload(t, name), smokeConfig(1, true))
		if err != nil {
			t.Fatal(err)
		}
		rec := res.rec
		self := rec.selfTimes()
		subs := 0
		for i, s := range rec.spans {
			if s.End < s.Start {
				t.Errorf("%s: span %d %q ends before it starts", name, i, s.Name)
			}
			if self[i] < 0 {
				t.Errorf("%s: span %d %q has self time %v", name, i, s.Name, self[i])
			}
			if s.Name == "core.Substitute" {
				subs++
			}
			if s.Parent < 0 {
				continue
			}
			p := rec.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %q [%v,%v] outside parent %q [%v,%v]", name, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
			if p.Parent >= 0 && p.Trace != s.Trace {
				t.Errorf("%s: span %q has trace %d, parent %q has %d", name, s.Name, s.Trace, p.Name, p.Trace)
			}
		}
		if subs == 0 {
			t.Errorf("%s: no core.Substitute spans", name)
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := rec.writeChrome(path); err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct{ TraceEvents []chromeEvent }
		if err := json.Unmarshal(buf, &tr); err != nil || len(tr.TraceEvents) != len(rec.spans) {
			t.Errorf("%s: trace file has %d events for %d spans (err %v)", name, len(tr.TraceEvents), len(rec.spans), err)
		}
	}
}

// Self time subtracts the union of the children's intervals, counting
// overlapping children once.
func TestSelfTimes(t *testing.T) {
	rec := &recorder{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50},
		{Name: "c", Parent: 0, Start: 70, End: 80},
		{Name: "d", Parent: 1, Start: 10, End: 40},
	}}
	want := []int64{50, 0, 20, 10, 30}
	for i, got := range rec.selfTimes() {
		if int64(got) != want[i] {
			t.Errorf("self(%s) = %d, want %d", rec.spans[i].Name, got, want[i])
		}
	}
}

// flipOutput returns a copy of nw whose first node-driven output computes
// the complement of what it did.
func flipOutput(t *testing.T, nw *network.Network) *network.Network {
	t.Helper()
	bad := nw.Clone()
	for _, po := range bad.POs() {
		if n := bad.Node(po); n != nil {
			bad.SetNodeCover(po, n.Cover.Complement())
			return bad
		}
	}
	t.Fatal("no node-driven output")
	return nil
}

// The check counts a deliberately inequivalent output as failed, for both
// the exhaustive suite check and the generated-circuit miter, and passes
// the unchanged circuit.
func TestCheckCountsInequivalentOutput(t *testing.T) {
	cone, err := bench.Generate("cone", 500, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	prepared := bench.Get("csel8")
	script.A(prepared)
	cases := []benchCase{
		{label: "cone", kind: scaleCase, input: cone, golden: -1},
		{label: "csel8", kind: tableCell, input: prepared, golden: -1},
	}
	for i := range cases {
		c := &cases[i]
		r := &runner{cfg: smokeConfig(1, false), res: &runResult{}}
		r.verify(c, c.input.Clone(), nil)
		if r.res.failed != 0 {
			t.Errorf("%s: unchanged circuit failed: %v", c.label, r.res.errors)
		}
		r.verify(c, flipOutput(t, c.input), nil)
		if r.res.attempted != 2 || r.res.failed != 1 {
			t.Errorf("%s: inequivalent output: attempted %d, failed %d, want 2 and 1", c.label, r.res.attempted, r.res.failed)
		}
	}
}

// Seed 2 builds a different generated circuit from seed 1, and the
// optimised result still passes every check.
func TestSeedChangesGeneratedCircuits(t *testing.T) {
	for _, name := range []string{"cone10k", "rand10k"} {
		w := mustWorkload(t, name)
		in1, err := w.setup(smokeConfig(1, false), nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		in2, err := w.setup(smokeConfig(2, false), nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		if in1.nets[0].String() == in2.nets[0].String() {
			t.Errorf("%s: seeds 1 and 2 built the same circuit", name)
		}
		res, err := runWorkload(w, smokeConfig(2, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s seed 2: %d of %d outputs failed: %v", name, res.failed, res.attempted, res.errors)
		}
	}
}

// Quartiles follow Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "optimize_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		s    metricSpec
		a, b []float64
		want string
	}{
		{lower, []float64{10, 10.1, 9.9}, []float64{10.2, 10, 10.1}, "same"},
		{lower, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "worse"},
		{lower, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "better"},
		{higher, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "worse"},
		// Spread wider than the bound: unresolved unless one side wins
		// every pairing.
		{lower, []float64{8, 10, 12, 14}, []float64{9, 11, 13, 15}, "unresolved"},
		{lower, []float64{8, 10, 12, 14}, []float64{5, 6, 7, 7.5}, "better"},
		{lower, []float64{8, 10, 12, 14}, []float64{20, 25, 30, 35}, "worse"},
		// A single run on a side shows no spread.
		{lower, []float64{10}, []float64{12, 12.1}, "unresolved"},
		{lower, []float64{10, 10.1}, []float64{8}, "unresolved"},
	} {
		if got, _ := verdict(tc.s, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.s.Better, tc.a, tc.b, got, tc.want)
		}
	}
}

// -compare exits 1 when a workload got worse and 0 when it did not.
func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, optimize ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range optimize {
			rec := runRecord{Workload: "cone10k", Metrics: map[string]metric{"optimize_s": {v, "s"}}}
			if err := appendResult(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.json", 1.0, 1.01, 0.99)
	same := write("same.json", 1.0, 0.995, 1.005)
	slow := write("slow.json", 1.5, 1.51, 1.49)
	for _, tc := range []struct {
		b    string
		code int
	}{{same, 0}, {slow, 1}} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-spec", specPath, "-compare", a, tc.b}, &stdout, &stderr); code != tc.code {
			t.Errorf("compare %s: exit %d, want %d\n%s%s", filepath.Base(tc.b), code, tc.code, stdout.String(), stderr.String())
		}
	}
}
