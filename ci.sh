#!/bin/sh
# CI gate: formatting + vet + the bdslint invariant suite + full test suite
# (tier-1) + race detector over the packages the parallel substitution
# engine touches (including the batch scheduler driven over a 100k-gate
# circuit regenerated from its committed recipe) + a fuzz smoke over every
# fuzz target (BLIF parser, cube algebra and complement, cone hashing,
# batch cone disjointness) + a bench-regression check of the substitution
# engine and the cube/minimizer kernels against the committed baseline —
# timing drift warns, scaling-floor violations fail. Run from the repo
# root.
set -eux

# Formatting gate: gofmt must have nothing to rewrite.
test -z "$(gofmt -l .)"

go vet ./...
go build ./...

# Invariant suite (see internal/analysis and DESIGN.md "Invariants: static
# vs runtime"): maporder, noclock, roview, spawn, idmap, hotalloc over the
# whole module. The same binary runs three ways:
#   1. standalone over ./... with the ignore-accounting report and the
#      committed per-rule budget (fails on stale ignores and budget growth),
#   2. as a `go vet` tool over one guarded package, exercising the
#      unitchecker protocol path the analyzers also support,
#   3. the report JSON is printed as a build artifact so a CI log shows the
#      suppression counts at a glance.
go build -o /tmp/bdslint.ci ./cmd/bdslint
/tmp/bdslint.ci -report /tmp/bdslint_ignores.json -budget testdata/lint/ignore_budget.json ./...
go vet -vettool=/tmp/bdslint.ci ./internal/core
echo "bdslint ignore report:" && cat /tmp/bdslint_ignores.json

go test ./...
go test -race ./internal/core ./internal/atpg ./internal/netlist

# Batch-scheduler race + identity check at scale: regenerate the 100k-gate
# cone-forest corpus circuit in-process from its committed recipe
# (bench.Generate("cone", 100000, 0, seed 1) — nothing large is checked in)
# and assert byte-identical committed BLIF across workers {1,4,8} × batch
# on/off under the race detector. Phase B speculation is the engine's only
# concurrent region, and small unit circuits don't fill the claim windows
# the way 100k gates do.
BDS_SCALE_RACE=1 BDS_SCALE_GATES=100000 \
  go test -race -run 'TestSubstituteBatchScaleRace$' -timeout 60m ./internal/core
# Fuzz smoke. The first line replays the committed seed corpora for every
# fuzz target (no -fuzz flag: deterministic, fails on any regressed seed).
# Then each target explores for a few seconds — Go accepts only one -fuzz
# pattern per invocation, so the loop pairs each target with its package.
go test -run Fuzz ./internal/blif ./internal/cube ./internal/network ./internal/core
for target in \
  'FuzzParse ./internal/blif' \
  'FuzzParseNoSemanticsCrash ./internal/blif' \
  'FuzzCoverOps ./internal/cube' \
  'FuzzComplement ./internal/cube' \
  'FuzzConeHashOrderInvariance ./internal/network' \
  'FuzzOverlayReadEquivalence ./internal/network' \
  'FuzzBatchDisjoint ./internal/core'
do
  set -- $target
  go test -run '^$' -fuzz "^$1\$" -fuzztime=5s "$2"
done

# Bench regression. Raw timing drift warns only — single-shot CI timings
# are noisy — but the committed scaling floors (w1/wN ratio per benchmark
# family, see testdata/bench/BENCH_substitute.json "scaling_floors") are a
# hard gate: both sides of a ratio come from the same run on the same host,
# so noise cancels, and a floor miss means multi-worker scheduling really
# regressed (the pre-batch wave scheduler scores ~0.5 against the 0.8
# floors). BenchmarkSubstituteScale regenerates its 10k/100k cone-forest
# circuits in-process from the committed recipe; the scale tiers dominate
# this step's wall time.
# -benchmem adds allocs/op and B/op, which benchreg compares with tighter
# thresholds than ns/op: allocation counts are near-deterministic here, so
# drift means the engine's allocation behavior actually changed.
go build -o /tmp/benchreg.ci ./cmd/benchreg
go test -run '^$' -bench 'BenchmarkSubstituteParallel$|BenchmarkNodeLookup$|BenchmarkPlannerBookkeeping$|BenchmarkSubstituteScale$|BenchmarkComplement$|BenchmarkSimplifyNode$' -benchtime 1x -benchmem -timeout 60m . \
  | /tmp/benchreg.ci -emit /tmp/BENCH_substitute.json
/tmp/benchreg.ci -compare testdata/bench/BENCH_substitute.json /tmp/BENCH_substitute.json
