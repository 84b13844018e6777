package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/network"
)

// A run builds its inputs at least setupReps times and for at least
// setupMin; setup_s is the median build, and the last build is the one
// optimised. Repeating the cheap set-ups (tens of milliseconds at 10k
// gates) steadies their median.
const (
	setupReps = 3
	setupMin  = time.Second
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	workers int
	golden  string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one workload run measured.
type runResult struct {
	workload  string
	setups    int
	reps      int
	attempted int
	failed    int
	errors    []string
	notes     []string
	// endToEnd always holds the end-to-end metrics; perLayer is filled by
	// the traced run only.
	endToEnd map[string]metric
	perLayer map[string]metric
	rec      *recorder
}

// repSample is what one repetition measured.
type repSample struct {
	optimize, cpu, check time.Duration
	allocBytes           uint64
	lits                 int
}

// runner executes the repetitions of one workload run.
type runner struct {
	cfg  runConfig
	in   *inputs
	rec  *recorder
	root int
	res  *runResult
	tids int
}

// runWorkload runs one workload: set-up (setupReps times), one untimed
// warm-up repetition, then timed repetitions until cfg.seconds of wall time
// have passed (at least one). It is a closed loop with a single client:
// each optimisation starts when the previous one has returned, and the
// only parallelism is the engine's own cfg.workers. A -smoke run skips the
// warm-up and times exactly one repetition. The traced run then adds one
// traced repetition at cfg.workers, one at a single worker, and the layer
// probes, and reports the per-layer metrics.
func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	r := &runner{cfg: cfg}
	if cfg.trace {
		r.rec = newRecorder()
	}
	r.res = &runResult{workload: w.name, rec: r.rec}
	r.root = r.rec.begin("workload "+w.name, -1, 0)
	defer r.rec.end(r.root)

	var setup []float64
	for start := time.Now(); len(setup) < setupReps || !cfg.smoke && time.Since(start) < setupMin; {
		id := r.rec.begin("setup", r.root, 0)
		t0 := time.Now()
		in, err := w.setup(cfg, r.rec, id)
		setup = append(setup, time.Since(t0).Seconds())
		r.rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		r.in = in
	}
	r.res.setups = len(setup)
	r.res.notes = append(r.res.notes, r.in.notes...)
	runtime.GC()

	if !cfg.smoke {
		r.rep(cfg.workers, nil)
	}
	var reps []repSample
	t0 := time.Now()
	for len(reps) == 0 || !cfg.smoke && time.Since(t0).Seconds() < cfg.seconds {
		reps = append(reps, r.rep(cfg.workers, nil))
	}
	r.res.reps = len(reps)
	for _, s := range reps[1:] {
		if s.lits != reps[0].lits {
			r.fail("determinism", fmt.Errorf("literal total %d in one repetition, %d in another", s.lits, reps[0].lits))
		}
	}
	pick := func(f func(repSample) float64) float64 {
		v := make([]float64, len(reps))
		for i, s := range reps {
			v[i] = f(s)
		}
		return median(v)
	}
	optimize := pick(func(s repSample) float64 { return s.optimize.Seconds() })
	r.res.endToEnd = map[string]metric{
		"setup_s":     {median(setup), "s"},
		"optimize_s":  {optimize, "s"},
		"cpu_s":       {pick(func(s repSample) float64 { return s.cpu.Seconds() }), "s"},
		"alloc_mb":    {pick(func(s repSample) float64 { return float64(s.allocBytes) / (1 << 20) }), "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"lits_out":    {float64(reps[0].lits), "count"},
	}
	if cfg.trace {
		checkS := pick(func(s repSample) float64 { return s.check.Seconds() })
		if err := r.layers(optimize, checkS, reps[0].lits); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// fail records one failed output.
func (r *runner) fail(label string, err error) {
	r.res.failed++
	r.res.errors = append(r.res.errors, label+": "+err.Error())
}

// rep runs every case once at the given worker count and checks every
// output. ins, when non-nil, instruments the repetition for the traced run.
// Only the optimisation calls are timed; cloning the input and checking
// the output are not.
func (r *runner) rep(workers int, ins *instr) repSample {
	r.tids++
	tid := r.tids
	if ins != nil {
		ins.tid = tid
	}
	id := r.rec.begin("rep", r.root, tid)
	defer r.rec.end(id)
	var s repSample
	for i := range r.in.cases {
		c := &r.in.cases[i]
		nw := c.input.Clone()
		cell := r.rec.begin(c.label, id, tid)
		alloc0, _ := heapAllocs()
		cpu0 := cpuTime()
		t0 := time.Now()
		err := c.run(nw, workers, ins, cell)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		alloc1, _ := heapAllocs()
		r.rec.end(cell)
		s.optimize += wall
		s.cpu += cpu
		s.allocBytes += alloc1 - alloc0

		vid := r.rec.begin("verify", id, tid)
		t1 := time.Now()
		r.verify(c, nw, err)
		s.check += time.Since(t1)
		r.rec.end(vid)
		s.lits += nw.FactoredLits()
	}
	return s
}

// verify counts one attempted output and checks it unless the run that
// produced it already failed with runErr; a failure of either kind is
// counted against the run.
func (r *runner) verify(c *benchCase, out *network.Network, runErr error) {
	r.res.attempted++
	err := runErr
	if err == nil {
		err = c.check(out, r.cfg.seed)
	}
	if err != nil {
		r.fail(c.label, err)
	}
}

// layers runs the traced repetitions and the probes and fills perLayer.
// optimize and checkS are the untraced medians, and lits the untraced
// literal total, which the engine must reproduce at any worker count.
func (r *runner) layers(optimize, checkS float64, lits int) error {
	rec := r.rec
	ins := &instr{rec: rec}
	before := readRuntime()
	traced := r.rep(r.cfg.workers, ins)
	after := readRuntime()
	w1 := &instr{rec: rec}
	serial := r.rep(1, w1)
	for _, s := range []repSample{traced, serial} {
		if s.lits != lits {
			r.fail("determinism", fmt.Errorf("literal total %d in a traced repetition, %d untraced", s.lits, lits))
		}
	}

	st := ins.stats
	subN, calls := rec.sum("core.Substitute", ins.tid)
	sub1, _ := rec.sum("core.Substitute", w1.tid)
	sis, _ := rec.sum("opt.ResubAlgebraic", ins.tid)
	var passMax time.Duration
	for _, d := range st.PassTimes {
		passMax = max(passMax, d)
	}
	count := func(n int) metric { return metric{float64(n), "count"} }
	rate := func(a, b int) metric { return metric{ratio(float64(a), float64(b)), "ratio"} }
	sec := func(d time.Duration) metric { return metric{d.Seconds(), "s"} }
	m := map[string]metric{
		"bench.generate_s":               {median(sumPerSetup(rec, "bench.Get", "bench.Generate")), "s"},
		"script.prepare_s":               {median(sumPerSetup(rec, "script.Prepare")), "s"},
		"opt.flow_s":                     sec(rec.sumSelf("script.Algebraic", ins.tid)),
		"opt.sis_resub_s":                sec(sis),
		"core.substitute_s":              sec(subN),
		"core.calls":                     count(calls),
		"core.passes":                    count(st.Passes),
		"core.pass_max_s":                sec(passMax),
		"core.trials":                    count(st.DivisorTrials),
		"core.subs":                      count(st.Substitutions),
		"core.trial_yield":               rate(st.Substitutions, st.DivisorTrials),
		"core.sigfilter.reject_rate":     rate(st.SigFilterReject, st.SigFilterReject+st.SigFilterPass),
		"core.sigfilter.false_pass_rate": rate(st.SigFilterFalsePass, st.SigFilterPass),
		"core.trialcache.hit_rate":       rate(st.CacheHits, st.CacheHits+st.CacheMisses),
		"core.trialcache.invalidated":    count(st.CacheInvalidated),
		"core.complcache.hit_rate":       rate(st.ComplCacheHits, st.ComplCacheHits+st.ComplCacheMisses),
		"core.sigcache.hit_rate":         rate(st.SigCacheHits, st.SigCacheHits+st.SigCacheMisses),
		"core.batch.speculated":          count(st.SpeculatedTrials),
		"core.batch.commit_share":        rate(st.BatchCommits, st.Substitutions),
		"core.batch.discarded":           count(st.DiscardedPlans),
		"core.batch.evictions":           count(st.ConflictEvictions),
		"core.speedup":                   {ratio(sub1.Seconds(), subN.Seconds()), "ratio"},
		"core.allocs_per_trial":          {ratio(float64(ins.mallocs), float64(st.DivisorTrials)), "count"},
		"runtime.gc_cpu_frac":            {ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio"},
		"runtime.gc_cycles":              {after.gcCycles - before.gcCycles, "count"},
		"verify.check_s":                 {checkS, "s"},
		"trace.overhead_pct":             {100 * (ratio(traced.optimize.Seconds(), optimize) - 1), "%"},
	}
	probes, note, err := probeLayers(r.in.nets, rec, r.root)
	if err != nil {
		return err
	}
	for k, v := range probes {
		m[k] = v
	}
	r.res.notes = append(r.res.notes, note)
	r.res.perLayer = m
	return nil
}

// sumPerSetup returns, for each set-up span, the summed duration of its
// children with one of the given names, in seconds.
func sumPerSetup(rec *recorder, names ...string) []float64 {
	var out []float64
	for _, name := range names {
		for i, d := range rec.childSums("setup", name) {
			if i == len(out) {
				out = append(out, 0)
			}
			out[i] += d.Seconds()
		}
	}
	return out
}

// runtimeSample is a reading of the runtime's GC counters.
type runtimeSample struct {
	gcCPU, totalCPU, gcCycles float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// heapAllocs reads the runtime's cumulative heap allocation counters, in
// bytes and objects (MemStats.TotalAlloc and Mallocs, read through
// runtime/metrics so that no read stops the world).
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of v (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
