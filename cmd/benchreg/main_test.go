package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaleSnap(w1, w4, w8 float64) snapshot {
	return snapshot{Benchmarks: map[string]measure{
		"SubstituteScale/cone10k/w1": {NsPerOp: w1},
		"SubstituteScale/cone10k/w4": {NsPerOp: w4},
		"SubstituteScale/cone10k/w8": {NsPerOp: w8},
	}}
}

func TestScalingFloorsPass(t *testing.T) {
	base := scaleSnap(100, 110, 120)
	base.ScalingFloors = map[string]map[string]float64{
		"SubstituteScale/cone10k": {"w4": 0.8, "w8": 0.8},
	}
	var buf strings.Builder
	// w1/w4 = 100/110 ≈ 0.91, w1/w8 = 100/120 ≈ 0.83 — both above 0.8.
	if err := checkScalingFloors(&buf, base, scaleSnap(100, 110, 120)); err != nil {
		t.Fatalf("floors met but checkScalingFloors failed: %v\n%s", err, buf.String())
	}
}

func TestScalingFloorsFailBelowFloor(t *testing.T) {
	base := scaleSnap(100, 110, 120)
	base.ScalingFloors = map[string]map[string]float64{
		"SubstituteScale/cone10k": {"w8": 0.8},
	}
	var buf strings.Builder
	// w1/w8 = 100/250 = 0.4 — the old wave-speculation regression shape.
	err := checkScalingFloors(&buf, base, scaleSnap(100, 110, 250))
	if err == nil {
		t.Fatalf("w8 speedup 0.4x below floor 0.8x but no error\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "FAIL") {
		t.Errorf("expected FAIL line, got:\n%s", buf.String())
	}
}

func TestScalingFloorsFailOnMissingVariant(t *testing.T) {
	base := scaleSnap(100, 110, 120)
	base.ScalingFloors = map[string]map[string]float64{
		"SubstituteScale/cone10k": {"w8": 0.8},
	}
	cur := scaleSnap(100, 110, 120)
	delete(cur.Benchmarks, "SubstituteScale/cone10k/w8")
	var buf strings.Builder
	if err := checkScalingFloors(&buf, base, cur); err == nil {
		t.Fatalf("gated variant missing from current run but no error\n%s", buf.String())
	}

	// Missing w1 reference must fail too, not divide by zero or skip.
	cur = scaleSnap(100, 110, 120)
	delete(cur.Benchmarks, "SubstituteScale/cone10k/w1")
	buf.Reset()
	if err := checkScalingFloors(&buf, base, cur); err == nil {
		t.Fatalf("w1 reference missing from current run but no error\n%s", buf.String())
	}
}

func TestScalingFloorsNoFloorsIsNoop(t *testing.T) {
	var buf strings.Builder
	if err := checkScalingFloors(&buf, scaleSnap(100, 110, 120), scaleSnap(1, 1, 1)); err != nil {
		t.Fatalf("no floors committed but checkScalingFloors failed: %v", err)
	}
}

// TestEmitRecordsMeasuredZero: -emit keeps a measured 0 allocs/op and B/op
// through the JSON round trip, and leaves the fields out only for a run
// that did not measure them.
func TestEmitRecordsMeasuredZero(t *testing.T) {
	out := `goos: linux
BenchmarkFactoring-2        	       1	     13400 ns/op	       0 B/op	       0 allocs/op
BenchmarkWeakDivision-2     	       1	      1700 ns/op	     384 B/op	       6 allocs/op
BenchmarkNoMem-2            	       1	      2500 ns/op
PASS
`
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := runEmit(strings.NewReader(out), path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]float64{"Factoring": {0, 0}, "WeakDivision": {6, 384}}
	for name, w := range want {
		m := snap.Benchmarks[name]
		if m.AllocsPerOp == nil || *m.AllocsPerOp != w[0] || m.BytesPerOp == nil || *m.BytesPerOp != w[1] {
			t.Errorf("%s round-tripped as allocs %v, bytes %v; want %v\n%s", name, m.AllocsPerOp, m.BytesPerOp, w, buf)
		}
	}
	if m := snap.Benchmarks["NoMem"]; m.AllocsPerOp != nil || m.BytesPerOp != nil {
		t.Errorf("a run without -benchmem recorded allocs %v, bytes %v\n%s", m.AllocsPerOp, m.BytesPerOp, buf)
	}
}

func ptr(v float64) *float64 { return &v }

// TestCompareWarnsWhenZeroBaselineAllocates: growth from a recorded 0
// warns, a 0 that stays 0 does not, a dimension the baseline did not
// measure is skipped, and one this run did not measure warns.
func TestCompareWarnsWhenZeroBaselineAllocates(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, cur *float64
		warn      bool
	}{
		{"zero becomes nonzero", ptr(0), ptr(1), true},
		{"zero stays zero", ptr(0), ptr(0), false},
		{"not measured in the baseline", nil, ptr(5), false},
		{"not measured in this run", ptr(0), nil, true},
		{"within threshold", ptr(100), ptr(104), false},
		{"past threshold", ptr(100), ptr(106), true},
	} {
		var buf strings.Builder
		got := compareDim(&buf, "Factoring", "allocs/op", tc.base, tc.cur, 5)
		if (got == 1) != tc.warn || strings.Contains(buf.String(), "WARNING") != tc.warn {
			t.Errorf("%s: compareDim returned %d and printed %q; want warning %v", tc.name, got, buf.String(), tc.warn)
		}
	}
}

// TestEmitKeepsMedianOfRepeatedRuns: a benchmark printed once per run
// (-count 3) is recorded with each field's median, so one slow run or one
// run that allocated more moves nothing; a metric only some runs report
// takes the median of those runs.
func TestEmitKeepsMedianOfRepeatedRuns(t *testing.T) {
	out := `BenchmarkSubstituteScale/cone10k/w1-2   1   900 ns/op   10 B/op   3 allocs/op   7 subs
BenchmarkOther-2                         1   50 ns/op
BenchmarkSubstituteScale/cone10k/w1-2   1   100 ns/op   30 B/op   5 allocs/op   7 subs   2 extra
BenchmarkSubstituteScale/cone10k/w1-2   1   120 ns/op   20 B/op   4 allocs/op   7 subs   4 extra
BenchmarkOther-2                         1   70 ns/op
`
	snap, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	m := snap.Benchmarks["SubstituteScale/cone10k/w1"]
	if m.NsPerOp != 120 || m.AllocsPerOp == nil || *m.AllocsPerOp != 4 || m.BytesPerOp == nil || *m.BytesPerOp != 20 {
		t.Errorf("median of three runs: ns %v, allocs %v, bytes %v; want 120, 4, 20", m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}
	if m.Metrics["subs"] != 7 || m.Metrics["extra"] != 2 {
		t.Errorf("metrics %v; want subs 7 and extra 2 (the lower middle of two runs)", m.Metrics)
	}
	if o := snap.Benchmarks["Other"]; o.NsPerOp != 50 || o.AllocsPerOp != nil {
		t.Errorf("two runs without -benchmem: ns %v, allocs %v; want 50 and unmeasured", o.NsPerOp, o.AllocsPerOp)
	}
}

// TestGrowthCeilings: -compare fails when a capped large/small ratio
// grows past its ceiling, when a gated leg is missing from the run, and
// when a leg did not measure a capped dimension, so deleting or renaming
// the benchmark cannot silently disable the gate. A family without
// ceilings is printed as report-only however it grows.
func TestGrowthCeilings(t *testing.T) {
	leg := func(ns, allocs float64) measure {
		return measure{NsPerOp: ns, AllocsPerOp: ptr(allocs), BytesPerOp: ptr(allocs * 64)}
	}
	run := func(small, large measure) snapshot {
		return snapshot{Benchmarks: map[string]measure{
			"SubstituteGrowth/basic/cone1k": small,
			"SubstituteGrowth/basic/cone3k": large,
			"SubstituteGrowth/ext/cone1k":   leg(100, 10),
			"SubstituteGrowth/ext/cone3k":   leg(900, 90),
		}}
	}
	base := run(leg(100, 10), leg(300, 30))
	base.GrowthCeilings = map[string]growthCeiling{
		"SubstituteGrowth/basic": {Small: "cone1k", Large: "cone3k", NsPerOp: ptr(4.5), AllocsPerOp: ptr(4.5), BytesPerOp: ptr(4.5)},
		"SubstituteGrowth/ext":   {Small: "cone1k", Large: "cone3k"},
	}
	missing := run(leg(100, 10), leg(300, 30))
	delete(missing.Benchmarks, "SubstituteGrowth/basic/cone3k")
	dir := t.TempDir()
	basePath, curPath := filepath.Join(dir, "base.json"), filepath.Join(dir, "cur.json")
	writeSnap(t, basePath, base)
	for _, tc := range []struct {
		name string
		cur  snapshot
		fail bool
	}{
		{"under the ceilings", run(leg(100, 10), leg(450, 31)), false},
		{"ns/op grows 9x", run(leg(100, 10), leg(900, 30)), true},
		{"allocs/op grows 9x", run(leg(100, 10), leg(300, 90)), true},
		{"B/op grows 9x", run(leg(100, 10), measure{NsPerOp: 300, AllocsPerOp: ptr(30), BytesPerOp: ptr(5760)}), true},
		{"allocs/op not measured", run(measure{NsPerOp: 100}, leg(300, 30)), true},
		{"leg missing", missing, true},
	} {
		writeSnap(t, curPath, tc.cur)
		var buf strings.Builder
		err := runCompare(&buf, basePath, curPath, thresholds{ns: 1e9, allocs: 1e9, bytes: 1e9})
		out := buf.String()
		if (err != nil) != tc.fail || strings.Contains(out, "FAIL") != tc.fail {
			t.Errorf("%s: err %v, want a failure: %v\n%s", tc.name, err, tc.fail, out)
		}
		if !tc.fail && !strings.Contains(out, "SubstituteGrowth/ext") {
			t.Errorf("%s: the report-only family was not printed:\n%s", tc.name, out)
		}
	}
}

// TestEmitKeepsGates: re-recording a snapshot over an existing one keeps
// its scaling_floors and growth_ceilings blocks.
func TestEmitKeepsGates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	ceiling := growthCeiling{Small: "cone1k", Large: "cone3k", NsPerOp: ptr(4), AllocsPerOp: ptr(3.5)}
	writeSnap(t, path, snapshot{
		ScalingFloors:  map[string]map[string]float64{"SubstituteScale/cone10k": {"w8": 0.8}},
		GrowthCeilings: map[string]growthCeiling{"SubstituteGrowth/basic": ceiling},
	})
	if err := runEmit(strings.NewReader("BenchmarkFactoring-2   1   120 ns/op\n"), path); err != nil {
		t.Fatal(err)
	}
	snap, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	g := snap.GrowthCeilings["SubstituteGrowth/basic"]
	if snap.ScalingFloors["SubstituteScale/cone10k"]["w8"] != 0.8 || g.Small != "cone1k" || g.Large != "cone3k" ||
		g.NsPerOp == nil || *g.NsPerOp != 4 || g.AllocsPerOp == nil || *g.AllocsPerOp != 3.5 {
		t.Errorf("gates lost: floors %v, ceilings %+v", snap.ScalingFloors, snap.GrowthCeilings)
	}
	if snap.Benchmarks["Factoring"].NsPerOp != 120 {
		t.Errorf("benchmarks not re-recorded: %+v", snap.Benchmarks)
	}
}

func writeSnap(t *testing.T, path string, s snapshot) {
	t.Helper()
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestComparePinsCountingMetrics: -compare fails when a pinned counting
// metric differs from the baseline or goes unreported, and only reports a
// metric that is not pinned.
func TestComparePinsCountingMetrics(t *testing.T) {
	baseMetrics := map[string]float64{"subs": 2172, "evict": 425, "lits": 9000, "ms": 3}
	for _, tc := range []struct {
		name string
		cur  map[string]float64
		fail string // a substring of the FAIL line, or "" for a pass
	}{
		{"identical", map[string]float64{"subs": 2172, "evict": 425, "lits": 9000, "ms": 3}, ""},
		{"report-only metric moved", map[string]float64{"subs": 2172, "evict": 425, "lits": 9000, "ms": 7}, ""},
		{"evictions moved", map[string]float64{"subs": 2172, "evict": 426, "lits": 9000, "ms": 3}, "evict is 426, pinned at 425"},
		{"lits unreported", map[string]float64{"subs": 2172, "evict": 425, "ms": 3}, "lits is pinned at 9000 but not reported"},
	} {
		var buf strings.Builder
		failed := comparePinned(&buf, "SubstituteScale/rand10k/w2", baseMetrics, tc.cur)
		switch {
		case tc.fail == "" && failed != 0:
			t.Errorf("%s: %d unexpected failure(s)\n%s", tc.name, failed, buf.String())
		case tc.fail != "" && (failed != 1 || !strings.Contains(buf.String(), tc.fail)):
			t.Errorf("%s: want one FAIL line with %q, got %d\n%s", tc.name, tc.fail, failed, buf.String())
		}
	}

	// Through runCompare: a moved pinned metric makes -compare return an error.
	snap := func(metrics map[string]float64) snapshot {
		return snapshot{Benchmarks: map[string]measure{
			"SubstituteScale/rand10k/w2": {NsPerOp: 100, Metrics: metrics},
		}}
	}
	dir := t.TempDir()
	bp, cp := filepath.Join(dir, "base.json"), filepath.Join(dir, "cur.json")
	writeSnap(t, bp, snap(baseMetrics))
	writeSnap(t, cp, snap(map[string]float64{"subs": 2171, "evict": 425, "lits": 9000}))
	var out strings.Builder
	if err := runCompare(&out, bp, cp, thresholds{ns: 15, allocs: 5, bytes: 10}); err == nil {
		t.Fatalf("runCompare passed a run whose subs moved\n%s", out.String())
	}
}
