// Command bdsbench is the repository's benchmark: it runs named workloads
// through the substitution engine and the script flows, checks every
// output, and prints every end-to-end metric by name and unit (or, in a
// traced run, every per-layer metric). BENCHMARK.json at the repository
// root lists the workloads and metrics, with their units and bounds.
//
// Run it from the repository root:
//
//	bash cmd/bdsbench/run.sh                      # all workloads, one process each
//	bash cmd/bdsbench/run.sh -workload cone10k -seed 2 -seconds 8
//	bash cmd/bdsbench/run.sh -workload rand10k -trace 1 -trace-file rand10k.trace.json
//	bash cmd/bdsbench/run.sh -out run1.json       # append results to a file
//	bash cmd/bdsbench/run.sh -compare run1.json run2.json
//
// (or `go run .` inside cmd/bdsbench with -spec ../../BENCHMARK.json and
// -golden ../../testdata/golden/experiments.json). The last line of a
// single-workload run is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// # Workloads
//
// paper_tables: Tables II–V of the paper over the 23 bench.Names()
// circuits × {sis, basic, ext, extgdc}, with internal/exp's options (POS,
// Pool): 368 cells per repetition, run one at a time. Scripts A/B/C and
// bench.Get are set-up; Table V runs script.Algebraic with the resub step
// plugged in. The suite is fixed, so the seed is ignored. It is the
// paper's own evaluation: small circuits that stress the ext and ext+GDC
// implications and recursive learning, POS, pooling, the signature
// filter, the trial cache across Table V's passes, and the opt flows; the
// batch scheduler rarely fills, and ext+GDC runs the serial path.
//
// cone10k: bench.Generate("cone", 10000, 0, seed) with the scale recipe of
// BenchmarkSubstituteScale (Basic, WindowDepth 3, NoSigFilter, MaxPasses
// 1, MaxDivisorTrials 8). The batch scheduler's best case at a size that
// fits in cache: disjoint cones, thousands of batch commits. It bypasses
// the signature filter, GDC and pooling; one pass leaves the trial cache
// almost idle.
//
// cone100k: the same recipe at 100000 gates. The working set exceeds the
// caches: tens of millions of allocations per repetition, GC, O(V) walls
// in batch phase A, and Network.AddPO's quadratic duplicate check in
// set-up.
//
// rand10k: bench.Generate("rand", 10000, 64, seed) with the same recipe.
// The cones are entangled, so the batch scheduler claims nothing and every
// node runs the serial driver and the wave reducer.
//
// # Load shape
//
// Each workload is a closed loop with one client: a single goroutine
// starts the next optimisation only when the previous one has returned,
// and the only parallelism is the engine's own Options.Workers =
// runtime.NumCPU(). A run builds its inputs at least 3 times and for at
// least a second, runs one untimed warm-up repetition, then timed
// repetitions until -seconds of wall time have passed (at least one), and
// reports medians with the repetition count R. On a 2-core host at the
// default 8 seconds, a repetition takes 14–20 s on paper_tables and 8–14 s
// on cone100k and rand10k, so R is 1 there, and about 0.65 s on cone10k,
// so R is 10 to 12.
//
// # Correctness
//
// Every output is checked: paper_tables cells by verify.Check, which is
// exhaustive because every suite circuit has at most 22 inputs, and Table
// II cells also against testdata/golden/experiments.json; generated
// circuits by a seeded 32-word random-simulation miter over every output
// plus network.Check (for rand10k the miter is random only, and the run
// says so). A panic, an error or a failed check counts against fail_rate
// (failed/attempted), as does a literal total that differs between
// repetitions, including a traced run's repetitions at one worker and at
// NumCPU; any failure makes the run exit 1.
//
// # End-to-end metrics
//
// The bound is the share by which a metric may get worse before -compare
// calls it a regression; BENCHMARK.json holds the values -compare uses.
// The time and memory bounds are wide because on a shared 2-core host the
// interquartile spread of ten runs (seeds 1–10) reached 18% for optimize_s
// and cpu_s (cone10k) and 24% for peak_rss_mb (paper_tables, whose 14 MB
// peak is mostly GC overshoot); the medians of two such sets of runs
// differed by up to 8% for optimize_s and 16% for setup_s.
//
//	setup_s      s      0.25  median wall time of one set-up (bench.Get + script.Prepare, or bench.Generate)
//	optimize_s   s      0.25  median wall time of the optimisation calls of one repetition
//	cpu_s        s      0.25  median user+sys CPU time (getrusage) over the same calls
//	alloc_mb     MB     0.05  median heap bytes allocated by the same calls (TotalAlloc, read via runtime/metrics)
//	peak_rss_mb  MB     0.25  VmHWM of the process, which runs only this workload
//	lits_out     count  0.03  factored-form literals of all outputs of one repetition
//
// fail_rate is printed and recorded too; it is not in BENCHMARK.json
// because it must be 0, and the result line carries attempted and failed.
//
// # Per-layer metrics
//
// A traced run (-trace 1) adds, after the timed repetitions, one traced
// repetition at the same worker count, one at a single worker, and timed
// probes of the lower layers, and prints the per-layer metrics instead of
// the end-to-end ones. Spans are recorded around each call the benchmark
// makes into a layer — workload, repetition, cell, flow stage or resub
// call, core.Substitute — and kept in memory; -trace-file writes them once
// at exit as Chrome trace-event JSON. Each layer metric should move the
// end-to-end metric after the arrow, mostly on the workloads named; the
// workload in parentheses bypasses the layer, so no change is predicted
// there.
//
//	bench.generate_s, script.prepare_s → setup_s: cone100k, paper_tables (cone10k)
//	opt.flow_s (script.Algebraic self time), opt.sis_resub_s → optimize_s: paper_tables (generated workloads)
//	core.substitute_s, core.calls, core.passes, core.pass_max_s, core.trials,
//	  core.subs, core.trial_yield → optimize_s, cpu_s: all workloads
//	core.sigfilter.reject_rate, core.sigfilter.false_pass_rate → optimize_s: paper_tables (generated: NoSigFilter)
//	core.trialcache.hit_rate, core.trialcache.invalidated, core.complcache.hit_rate,
//	  core.sigcache.hit_rate → optimize_s: paper_tables (cone10k, one pass)
//	core.batch.speculated, core.batch.commit_share, core.batch.discarded,
//	  core.batch.evictions, core.speedup (Substitute wall at 1 worker / at
//	  NumCPU) → optimize_s: cone10k, cone100k (rand10k, paper_tables)
//	core.allocs_per_trial, runtime.gc_cpu_frac, runtime.gc_cycles → alloc_mb, cpu_s: cone100k, rand10k
//	network.clone_ns, network.sigs_build_ns, network.cones_build_ns,
//	  network.simulate_ns, network.check_ns, netlist.build_ns, netlist.patch_ns
//	  → optimize_s: trial-heavy workloads, most on cone100k
//	atpg.untestable_ns, atpg.learn_ns, atpg.untestable_share → optimize_s:
//	  trial-heavy workloads; learning matters on paper_tables only
//	cube.complement_ns, mini.minimize_ns, algebraic.factor_ns → optimize_s: trial-heavy workloads
//	verify.check_s: the cost of the correctness check per repetition
//	trace.overhead_pct: traced optimize_s against the untraced median
//
// The probes time public calls on the workload's own input networks:
// whole-network calls per node, and the rest per node, patch or fault over
// a fixed sample of 256 nodes (and their cube-pin stuck-at-1 faults) that
// the run prints.
//
// -compare A B prints, for every end-to-end metric and workload, whether
// the runs in B are better, the same, worse or unresolved against those in
// A. A pair is unresolved when either side has a single run, or when the
// interquartile spread of A's runs exceeds the bound unless every run on
// one side beats every run on the other. Compare sets of runs over several
// seeds: on a shared host one run per side cannot tell a change from
// noise. It exits 1 if any pair is worse.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and runs the benchmark; it returns the exit code: 0 on
// success, 1 on a failed check or a worse comparison, 2 on bad usage or a
// run that could not complete.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bdsbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "run only this workload; empty runs every workload, each in its own process")
	seed := fl.Int64("seed", 1, "seed of the generated workloads")
	seconds := fl.Float64("seconds", 0, "wall seconds of timed repetitions per run (0 = run_seconds of the spec)")
	trace := fl.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	traceFile := fl.String("trace-file", "", "with -trace 1, write the spans to this file as Chrome trace-event JSON")
	out := fl.String("out", "", "append each run's results to this JSON file")
	compare := fl.String("compare", "", "compare the results file `A` with the results file given as the argument, then exit")
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark spec: metric names, units and bounds")
	golden := fl.String("golden", "testdata/golden/experiments.json", "golden Table II literal counts")
	smoke := fl.Bool("smoke", false, "small inputs, no warm-up and one repetition")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bdsbench:", err)
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	if *compare != "" {
		if fl.NArg() != 1 {
			return fail(errors.New("-compare A.json needs the second results file as its argument"))
		}
		worse, err := compareResults(stdout, spec, *compare, fl.Arg(0))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if fl.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fl.Args()))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace is 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *workload == "" {
		return runAll(args, *traceFile, stdout, stderr)
	}
	w, ok := findWorkload(*workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", ")))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, workers: runtime.NumCPU(), golden: *golden}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return fail(err)
	}
	return report(stdout, stderr, spec, cfg, res, *out, *traceFile)
}

// runAll runs every workload in turn, each in a child process of its own so
// that its peak RSS is its own, and returns the worst exit code.
func runAll(args []string, traceFile string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bdsbench:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		childArgs := append(append([]string(nil), args...), "-workload", w.name)
		if traceFile != "" {
			ext := filepath.Ext(traceFile)
			childArgs = append(childArgs, "-trace-file", strings.TrimSuffix(traceFile, ext)+"."+w.name+ext)
		}
		cmd := exec.Command(exe, childArgs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintln(stderr, "bdsbench:", err)
				return 2
			}
			code = max(code, exit.ExitCode())
		}
	}
	return code
}

// report prints one workload run's results, writes the trace and results
// files, and returns the exit code. The last line printed is the result
// line with exactly the metrics the spec lists for this kind of run.
func report(stdout, stderr io.Writer, spec *benchSpec, cfg runConfig, res *runResult, outPath, tracePath string) int {
	specs, got := spec.EndToEnd, res.endToEnd
	if cfg.trace {
		specs, got = spec.PerLayer, res.perLayer
	}
	sel, err := selectMetrics(specs, got)
	if err != nil {
		fmt.Fprintln(stderr, "bdsbench:", err)
		return 2
	}
	failRate := ratio(float64(res.failed), float64(res.attempted))
	warm := "one untimed warm-up"
	if cfg.smoke {
		warm = "no warm-up (smoke)"
	}
	fmt.Fprintf(stdout, "%s: seed %d, set-up x%d, %s, R=%d timed repetitions (median reported), closed loop with one client, %d engine workers\n",
		res.workload, cfg.seed, res.setups, warm, res.reps, cfg.workers)
	for _, s := range specs {
		fmt.Fprintf(stdout, "  %-32s %16.6f %s\n", s.Name, sel[s.Name].Value, s.Unit)
	}
	fmt.Fprintf(stdout, "  %-32s %16.6f ratio (%d of %d outputs failed)\n", "fail_rate", failRate, res.failed, res.attempted)
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	for _, e := range res.errors {
		fmt.Fprintf(stderr, "bdsbench: %s: FAILED %s\n", res.workload, e)
	}
	if tracePath != "" && res.rec != nil {
		if err := res.rec.writeChrome(tracePath); err != nil {
			fmt.Fprintln(stderr, "bdsbench:", err)
			return 2
		}
	}
	if outPath != "" {
		all := map[string]metric{}
		for k, v := range res.endToEnd {
			all[k] = v
		}
		for k, v := range res.perLayer {
			all[k] = v
		}
		rec := runRecord{
			Workload: res.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Smoke: cfg.smoke,
			Workers: cfg.workers, Setups: res.setups, Reps: res.reps, Attempted: res.attempted, Failed: res.failed, FailRate: failRate,
			Metrics: all, Notes: res.notes,
			Host: fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		}
		if err := appendResult(outPath, rec); err != nil {
			fmt.Fprintln(stderr, "bdsbench:", err)
			return 2
		}
	}
	line, err := json.Marshal(resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: sel})
	if err != nil {
		fmt.Fprintln(stderr, "bdsbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.failed > 0 {
		return 1
	}
	return 0
}
