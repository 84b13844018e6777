package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metrics
// it must print, with their units, and the regression bounds -compare uses.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("parse benchmark spec %s: %w", path, err)
	}
	return &s, nil
}

// selectMetrics returns exactly the metrics the spec lists, failing when
// the run did not produce one or produced it in another unit.
func selectMetrics(specs []metricSpec, got map[string]metric) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		m, ok := got[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in the spec but was not measured", s.Name)
		}
		if m.Unit != s.Unit {
			return nil, fmt.Errorf("metric %s is measured in %s, the spec says %s", s.Name, m.Unit, s.Unit)
		}
		out[s.Name] = m
	}
	return out, nil
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run as the results file keeps it.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke"`
	Workers   int               `json:"workers"`
	Setups    int               `json:"setups"`
	Reps      int               `json:"reps"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRate  float64           `json:"fail_rate"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	Host      string            `json:"host"`
}

// resultsFile is a set of runs: -out appends to it, -compare reads two.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	var f resultsFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("parse results %s: %w", path, err)
	}
	return &f, nil
}

// appendResult adds rec to the results file at path, creating it if needed.
func appendResult(path string, rec runRecord) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &resultsFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, rec)
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

// quartiles returns the first and third quartiles of v by the method of
// Python's statistics.quantiles(v, n=4) (the "exclusive" method), so the
// spread matches what other tools compute from the same runs. Fewer than
// two values have no spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		m := median(s)
		return m, m
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

// verdict classifies B against A, the baseline, for one metric and returns
// it with the relative change of the median (positive = worse). A pair
// with a single run on either side is unresolved: one run cannot show the
// spread. When the spread of A's runs exceeds the bound the pair is
// unresolved too, unless every run of one side beats every run of the
// other: then B is better if its runs win, and the medians decide if A's
// do. Otherwise the medians decide.
func verdict(s metricSpec, a, b []float64) (string, float64) {
	better := func(x, y float64) bool { // x is strictly better than y
		if s.Better == "higher" {
			return x > y
		}
		return x < y
	}
	beatsAll := func(xs, ys []float64) bool {
		for _, x := range xs {
			for _, y := range ys {
				if !better(x, y) {
					return false
				}
			}
		}
		return true
	}
	ma, mb := median(a), median(b)
	change := ratio(mb-ma, ma)
	if s.Better == "higher" {
		change = -change
	}
	if len(a) < 2 || len(b) < 2 {
		return "unresolved", change
	}
	if spread(a) > s.Bound {
		if beatsAll(b, a) {
			return "better", change
		}
		if !beatsAll(a, b) {
			return "unresolved", change
		}
	}
	switch {
	case change > s.Bound:
		return "worse", change
	case change < -s.Bound:
		return "better", change
	}
	return "same", change
}

// compareResults prints, for every end-to-end metric and workload found in
// the two results files, the verdict of B against A, and reports whether
// any pair got worse.
func compareResults(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	fa, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	values := func(f *resultsFile, workload, metric string) []float64 {
		var v []float64
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Trace && !r.Smoke {
				if m, ok := r.Metrics[metric]; ok {
					v = append(v, m.Value)
				}
			}
		}
		return v
	}
	anyWorse := false
	fmt.Fprintf(w, "%-12s %-12s %4s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "change", "spread A", "spread B", "bound", "verdict")
	for _, wl := range workloads {
		for _, s := range spec.EndToEnd {
			a, b := values(fa, wl.name, s.Name), values(fb, wl.name, s.Name)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			v, change := "unresolved", 0.0
			if len(a) > 0 && len(b) > 0 {
				v, change = verdict(s, a, b)
			}
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-12s %-12s %2d/%-2d %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.name, s.Name, len(a), len(b), median(a), median(b), 100*change,
				100*spread(a), 100*spread(b), 100*s.Bound, v)
		}
	}
	return anyWorse, nil
}
