// Command benchreg is the bench-regression harness for the substitution
// engine: it converts `go test -bench` output into a small JSON snapshot and
// compares a fresh snapshot against a committed baseline, warning when a
// benchmark's ns/op regressed beyond a threshold.
//
// Emit a snapshot (reads benchmark output on stdin):
//
//	go test -run '^$' -bench 'Substitute(Parallel|Scale)$' -benchtime 1x . |
//	    benchreg -emit BENCH_substitute.json
//
// Compare a snapshot against the committed baseline (warn-only — the exit
// status stays 0 on regressions, because one-shot CI timings on shared
// hardware are too noisy to hard-fail on; the warning is the signal):
//
//	benchreg -compare testdata/bench/BENCH_substitute.json BENCH_substitute.json
//
// With `-benchmem` output, allocs/op and B/op are captured into dedicated
// snapshot fields and compared with their own (tighter) drift thresholds:
// allocation counts are deterministic for this engine, so they regress only
// when the code's allocation behavior actually changed, and a much smaller
// threshold than the timing one is appropriate. A measured 0 is recorded
// as 0, and a field is left out only when the run did not measure it, so a
// benchmark recorded allocation-free warns as soon as it allocates at all.
//
// The counting metrics the benchmarks report (pinnedMetrics: substitutions,
// trials, batch commits, speculated trials, evictions, literal totals,
// fault verdicts, wire scores, candidate counts) are functions of the code,
// not of the host, so -compare fails when one of them differs from the
// baseline: a change that claims the same decisions is held to it. Any
// other metric is carried in the snapshot and reported only.
//
// Scaling floors are the one hard-fail dimension. The baseline may carry a
// "scaling_floors" map from a benchmark family (e.g. "SubstituteScale/cone10k",
// which must have a "<family>/w1" entry) to minimum w1/wN speedup ratios per
// worker variant (e.g. {"w8": 0.8}). Unlike raw ns/op — which drifts with host
// load — the *ratio* between worker counts of the same benchmark in the same
// run is stable, so a ratio below its committed floor means multi-worker
// scheduling genuinely regressed (e.g. speculation being discarded wholesale),
// and -compare exits nonzero.
//
// Growth ceilings are the other. The baseline may carry a "growth_ceilings"
// map from a benchmark family (e.g. "SubstituteGrowth/basic") to its small
// and large legs (e.g. "cone1k" and "cone3k", three times the gates) and
// maximum large/small ratios of ns/op, allocs/op and B/op. Taken within one
// run, like the scaling ratios, a growth ratio says how the cost scales
// with circuit size: linear growth reads 3 on those legs and quadratic 9,
// so a ratio over its ceiling means a trial went back to costing
// O(network). The allocation ratios are near-deterministic and can carry
// tight ceilings; the timing ratio moves with host load between the legs.
// A family without ceilings is printed only. -emit preserves both blocks
// from an existing snapshot at the output path, so re-recording timings
// keeps floors and ceilings.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// snapshot is the committed baseline shape (testdata/bench/BENCH_substitute.json).
type snapshot struct {
	// Benchmarks maps a benchmark name (GOMAXPROCS suffix stripped, e.g.
	// "SubstituteParallel/w4") to its measurements.
	Benchmarks map[string]measure `json:"benchmarks"`
	// ScalingFloors maps a benchmark family (e.g. "SubstituteScale/cone10k")
	// to minimum w1/wN speedup ratios per worker variant (e.g. {"w8": 0.8}).
	// Violations are hard failures in -compare, not warnings: the ratio is
	// taken within one run, so host noise cancels out.
	ScalingFloors map[string]map[string]float64 `json:"scaling_floors,omitempty"`
	// GrowthCeilings maps a benchmark family (e.g. "SubstituteGrowth/basic")
	// to its two size legs and the ceilings on their ratio (see
	// checkGrowthCeilings).
	GrowthCeilings map[string]growthCeiling `json:"growth_ceilings,omitempty"`
}

// growthCeiling names a family's small and large legs and caps the
// large/small ratio of ns/op, allocs/op and B/op; a nil cap is report-only.
type growthCeiling struct {
	Small       string   `json:"small"`
	Large       string   `json:"large"`
	NsPerOp     *float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

// measure is one benchmark's result. AllocsPerOp and BytesPerOp are nil
// when the run did not measure them (no -benchmem) and point at the
// measured value otherwise, 0 included.
type measure struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	emit := flag.String("emit", "", "parse `go test -bench` output on stdin and write a JSON snapshot to this file")
	compare := flag.Bool("compare", false, "compare two snapshots (args: baseline current); warn on regressions")
	threshold := flag.Float64("threshold", 15, "ns/op regression warning threshold in percent (with -compare)")
	allocThreshold := flag.Float64("allocthreshold", 5, "allocs/op regression warning threshold in percent (with -compare)")
	byteThreshold := flag.Float64("bytethreshold", 10, "B/op regression warning threshold in percent (with -compare)")
	flag.Parse()

	switch {
	case *emit != "" && !*compare:
		if err := runEmit(os.Stdin, *emit); err != nil {
			fmt.Fprintf(os.Stderr, "benchreg: %v\n", err)
			os.Exit(1)
		}
	case *compare && *emit == "":
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchreg: -compare needs exactly two args: baseline.json current.json")
			os.Exit(2)
		}
		th := thresholds{ns: *threshold, allocs: *allocThreshold, bytes: *byteThreshold}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), th); err != nil {
			fmt.Fprintf(os.Stderr, "benchreg: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchreg: exactly one of -emit FILE or -compare baseline.json current.json")
		os.Exit(2)
	}
}

func runEmit(r io.Reader, path string) error {
	snap, err := parseBench(r)
	if err != nil {
		return err
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines on stdin (pipe `go test -bench` output in)")
	}
	// Re-recording timings must not silently drop the committed gates:
	// carry the scaling_floors and growth_ceilings blocks over from any
	// snapshot already at path.
	if old, err := load(path); err == nil {
		snap.ScalingFloors, snap.GrowthCeilings = old.ScalingFloors, old.GrowthCeilings
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchreg: wrote %s (%d benchmarks)\n", path, len(snap.Benchmarks))
	return nil
}

// parseBench reads `go test -bench` output: result lines look like
//
//	BenchmarkSubstituteParallel/w4-8   1   150647451 ns/op   534 lits   392 trials
//
// i.e. name-P, iteration count, then (value, unit) pairs. A benchmark run
// several times (`-count N`) prints one line per run; its snapshot entry
// holds each field's median over those lines (see median), so one noisy
// run moves nothing.
func parseBench(r io.Reader) (snapshot, error) {
	runs := make(map[string][]measure)
	var names []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the trailing -GOMAXPROCS so snapshots compare across hosts.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := measure{Metrics: make(map[string]float64)}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
				ok = true
			case "allocs/op":
				m.AllocsPerOp = &v
			case "B/op":
				m.BytesPerOp = &v
			default:
				m.Metrics[fields[i+1]] = v
			}
		}
		if ok {
			if _, seen := runs[name]; !seen {
				names = append(names, name)
			}
			runs[name] = append(runs[name], m)
		}
	}
	snap := snapshot{Benchmarks: make(map[string]measure, len(names))}
	for _, name := range names {
		snap.Benchmarks[name] = median(runs[name])
	}
	return snap, sc.Err()
}

// median returns the field-wise median of one benchmark's runs: ns/op,
// allocs/op, B/op and every metric each take the median of the runs that
// measured them. A field no run measured stays unmeasured.
func median(ms []measure) measure {
	var ns, allocs, bytes []float64
	metrics := make(map[string][]float64)
	for _, m := range ms {
		ns = append(ns, m.NsPerOp)
		if m.AllocsPerOp != nil {
			allocs = append(allocs, *m.AllocsPerOp)
		}
		if m.BytesPerOp != nil {
			bytes = append(bytes, *m.BytesPerOp)
		}
		for unit, v := range m.Metrics {
			metrics[unit] = append(metrics[unit], v)
		}
	}
	out := measure{NsPerOp: *middle(ns), AllocsPerOp: middle(allocs), BytesPerOp: middle(bytes)}
	for unit, vs := range metrics {
		if out.Metrics == nil {
			out.Metrics = make(map[string]float64, len(metrics))
		}
		out.Metrics[unit] = *middle(vs)
	}
	return out
}

// middle returns the median of vs, nil when vs is empty. For an even
// count it is the lower of the two middle values, so every recorded value
// is one a run measured.
func middle(vs []float64) *float64 {
	if len(vs) == 0 {
		return nil
	}
	sort.Float64s(vs)
	return &vs[(len(vs)-1)/2]
}

func load(path string) (snapshot, error) {
	var s snapshot
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// thresholds holds the per-dimension regression warning thresholds (percent).
type thresholds struct {
	ns, allocs, bytes float64
}

func runCompare(w io.Writer, basePath, curPath string, th thresholds) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cur, err := load(curPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base.Benchmarks))
	// Keys collected then sorted before use.
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	warned, failed := 0, 0
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "benchreg: WARNING: %s in baseline but not in this run\n", name)
			warned++
			continue
		}
		warned += compareDim(w, name, "ns/op", &b.NsPerOp, &c.NsPerOp, th.ns)
		warned += compareDim(w, name, "allocs/op", b.AllocsPerOp, c.AllocsPerOp, th.allocs)
		warned += compareDim(w, name, "B/op", b.BytesPerOp, c.BytesPerOp, th.bytes)
		failed += comparePinned(w, name, b.Metrics, c.Metrics)
	}
	if warned > 0 {
		fmt.Fprintf(w, "benchreg: %d warning(s) — investigate before committing, or re-record the baseline\n", warned)
	}
	var pinErr error
	if failed > 0 {
		pinErr = fmt.Errorf("%d pinned-metric failure(s)", failed)
	}
	return errors.Join(pinErr, checkScalingFloors(w, base, cur), checkGrowthCeilings(w, base, cur))
}

// pinnedMetrics are the benchmark metrics that count what the code did,
// identical in every run of one tree on any host (three runs of ci.sh's
// bench step read each of them alike).
var pinnedMetrics = map[string]bool{
	"subs": true, "trials": true, "bcommits": true, "spec": true, "evict": true,
	"lits": true, "untestable": true, "witnessed": true, "wires": true, "cands": true,
}

// comparePinned prints a failure for, and counts, each pinned metric that
// benchmark name's baseline records and the current run reports
// differently or not at all. The metric is a count, so any difference
// means the code decided something else.
func comparePinned(w io.Writer, name string, base, cur map[string]float64) int {
	units := make([]string, 0, len(base))
	for unit := range base {
		if pinnedMetrics[unit] {
			units = append(units, unit)
		}
	}
	sort.Strings(units)
	failed := 0
	for _, unit := range units {
		want := base[unit]
		switch got, ok := cur[unit]; {
		case !ok:
			fmt.Fprintf(w, "benchreg: FAIL: %s %s is pinned at %g but not reported in this run\n", name, unit, want)
			failed++
		case got != want:
			fmt.Fprintf(w, "benchreg: FAIL: %s %s is %g, pinned at %g\n", name, unit, got, want)
			failed++
		}
	}
	return failed
}

// checkScalingFloors enforces the baseline's scaling_floors block against the
// current run: for each family, the current w1/wN ns-per-op ratio must meet
// the committed floor. Unlike the warn-only dimensions this returns an error
// (nonzero exit) on violation — both sides of the ratio come from the same
// run on the same host, so noise cancels and a miss is a real scheduling
// regression. A family or variant missing from the current run also fails:
// deleting the benchmark must not silently disable the gate.
func checkScalingFloors(w io.Writer, base, cur snapshot) error {
	families := make([]string, 0, len(base.ScalingFloors))
	for f := range base.ScalingFloors {
		families = append(families, f)
	}
	sort.Strings(families)
	failed := 0
	for _, fam := range families {
		ref, ok := cur.Benchmarks[fam+"/w1"]
		if !ok || ref.NsPerOp <= 0 {
			fmt.Fprintf(w, "benchreg: FAIL: %s/w1 missing from this run (needed as the scaling reference)\n", fam)
			failed++
			continue
		}
		variants := make([]string, 0, len(base.ScalingFloors[fam]))
		for v := range base.ScalingFloors[fam] {
			variants = append(variants, v)
		}
		sort.Strings(variants)
		for _, v := range variants {
			floor := base.ScalingFloors[fam][v]
			m, ok := cur.Benchmarks[fam+"/"+v]
			if !ok || m.NsPerOp <= 0 {
				fmt.Fprintf(w, "benchreg: FAIL: %s/%s missing from this run (committed floor %.2fx)\n", fam, v, floor)
				failed++
				continue
			}
			speedup := ref.NsPerOp / m.NsPerOp
			if speedup < floor {
				fmt.Fprintf(w, "benchreg: FAIL: %s %s speedup %.2fx below committed floor %.2fx (w1 %.0f ns/op, %s %.0f ns/op)\n",
					fam, v, speedup, floor, ref.NsPerOp, v, m.NsPerOp)
				failed++
				continue
			}
			fmt.Fprintf(w, "benchreg: %-30s %s speedup %.2fx (floor %.2fx)\n", fam, v, speedup, floor)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d scaling-floor failure(s)", failed)
	}
	return nil
}

// checkGrowthCeilings enforces the baseline's growth_ceilings block against
// the current run: for each family, the large/small ratio of every capped
// dimension must not exceed its ceiling. Like the scaling floors, both legs
// come from the same run, and a listed leg missing from it fails, as does a
// capped dimension either leg did not measure. Uncapped dimensions are
// printed as report-only.
func checkGrowthCeilings(w io.Writer, base, cur snapshot) error {
	families := make([]string, 0, len(base.GrowthCeilings))
	for f := range base.GrowthCeilings {
		families = append(families, f)
	}
	sort.Strings(families)
	failed := 0
	for _, fam := range families {
		g := base.GrowthCeilings[fam]
		small, okS := cur.Benchmarks[fam+"/"+g.Small]
		large, okL := cur.Benchmarks[fam+"/"+g.Large]
		if !okS || !okL {
			fmt.Fprintf(w, "benchreg: FAIL: %s needs both %s and %s in this run\n", fam, g.Small, g.Large)
			failed++
			continue
		}
		failed += growthDim(w, fam, "ns/op", &small.NsPerOp, &large.NsPerOp, g.NsPerOp)
		failed += growthDim(w, fam, "allocs/op", small.AllocsPerOp, large.AllocsPerOp, g.AllocsPerOp)
		failed += growthDim(w, fam, "B/op", small.BytesPerOp, large.BytesPerOp, g.BytesPerOp)
	}
	if failed > 0 {
		return fmt.Errorf("%d growth-ceiling failure(s)", failed)
	}
	return nil
}

// growthDim reports one dimension's large/small ratio for family fam,
// returning 1 if it fails its ceiling (nil = report-only).
func growthDim(w io.Writer, fam, unit string, small, large, ceiling *float64) int {
	if small == nil || large == nil || *small <= 0 {
		if ceiling == nil {
			return 0
		}
		fmt.Fprintf(w, "benchreg: FAIL: %s %s not measured on both legs (committed ceiling %.2fx)\n", fam, unit, *ceiling)
		return 1
	}
	ratio := *large / *small
	switch {
	case ceiling == nil:
		fmt.Fprintf(w, "benchreg: %-30s %s growth %.2fx (report-only)\n", fam, unit, ratio)
	case ratio > *ceiling:
		fmt.Fprintf(w, "benchreg: FAIL: %s %s growth %.2fx above committed ceiling %.2fx (%.0f -> %.0f %s)\n",
			fam, unit, ratio, *ceiling, *small, *large, unit)
		return 1
	default:
		fmt.Fprintf(w, "benchreg: %-30s %s growth %.2fx (ceiling %.2fx)\n", fam, unit, ratio, *ceiling)
	}
	return 0
}

// compareDim reports one benchmark dimension, returning 1 if it warned. A
// dimension the baseline did not measure (nil) is skipped — old snapshots
// that predate -benchmem stay comparable on ns/op alone. One the baseline
// measured but this run did not warns, and so does any growth from a
// measured 0, where a percentage has no meaning.
func compareDim(w io.Writer, name, unit string, base, cur *float64, threshold float64) int {
	switch {
	case base == nil:
		return 0
	case cur == nil:
		fmt.Fprintf(w, "benchreg: WARNING: %s %s is in the baseline (%.0f) but not measured in this run\n", name, unit, *base)
		return 1
	case *base <= 0 && *cur > 0:
		fmt.Fprintf(w, "benchreg: WARNING: %s regressed from 0 %s to %.0f %s\n", name, unit, *cur, unit)
		return 1
	case *base <= 0:
		fmt.Fprintf(w, "benchreg: %-30s still 0 %s\n", name, unit)
		return 0
	}
	delta := 100 * (*cur - *base) / *base
	if delta > threshold {
		fmt.Fprintf(w, "benchreg: WARNING: %s regressed %.1f%% (baseline %.0f %s, now %.0f %s; threshold %.0f%%)\n",
			name, delta, *base, unit, *cur, unit, threshold)
		return 1
	}
	fmt.Fprintf(w, "benchreg: %-30s %+.1f%% (baseline %.0f %s, now %.0f %s)\n",
		name, delta, *base, unit, *cur, unit)
	return 0
}
