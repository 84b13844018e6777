#!/bin/sh
# CI gate: formatting + vet + the bdslint invariant suite + full test suite
# (tier-1) + vet and tests of the cmd/bdsbench module (its own go.mod, so
# ./... skips it, yet it compiles against core, network and script) + race
# detector over the packages the parallel substitution engine touches,
# the pooled factoring kernel, the pooled minimizer and the pooled
# complementer among them, plus the experiment runner, which runs whole
# table rows on parallel goroutines (including the batch scheduler driven
# over a 100k-gate circuit
# regenerated from its committed recipe) + a fuzz smoke over every fuzz
# target (BLIF parser, cube algebra and the pooled complement, the
# minimizer, the factoring kernel and weak division against their
# pre-arena references, the POS literal floor against the factored literal
# counts it bounds and, up to 8 variables, a brute-force count, cone
# hashing, batch cone disjointness, the implication engine against its
# pre-change reference, windowed trials
# against the full-depth reference window, and FuzzSubstitute: the whole
# optimizer over random DAGs × the Options matrix, checked for
# equivalence, network.Check and BLIF identity across schedules, and
# FuzzWitness: the implication engine's simulation witnesses against plain
# implication and their memo against Netlist.Eval across netlist edits) + a
# bench-regression check of the substitution engine, the cube complement,
# minimizer and factoring kernels and the implication engine against the
# committed baseline — timing drift warns, scaling-floor violations fail.
# Run from the repo root.
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
# The benchmark is a nested module: vet and test it against this tree.
go -C cmd/bdsbench vet ./...
go -C cmd/bdsbench test ./...
go test -race ./internal/core ./internal/atpg ./internal/netlist ./internal/algebraic ./internal/mini ./internal/cube ./internal/network ./internal/exp

# Batch-scheduler race + identity check at scale: regenerate the 100k-gate
# cone forest and the 10k-gate random-logic circuit in-process from their
# committed recipes (bench.Generate("cone", 100000, 0, 1) and
# bench.Generate("rand", 10000, 64, 1) — nothing large is checked in) and
# assert byte-identical committed BLIF across workers {1,4,8} (× batch
# on/off on the random logic) and a seeded random-simulation miter of every
# output against the input, under the race detector. Phase B speculation
# is the engine's only concurrent region, and small unit circuits don't
# fill the claim windows the way these circuits do.
BDS_SCALE_RACE=1 BDS_SCALE_GATES=100000 \
  go test -race -run 'TestSubstituteBatchScaleRace$' -timeout 60m ./internal/core
# Fuzz smoke. The first line replays the committed seed corpora for every
# fuzz target of the listed packages, FuzzLiteralFloor among them (no -fuzz
# flag: deterministic, fails on any regressed seed).
# Then each target explores for a few seconds — Go accepts only one -fuzz
# pattern per invocation, so the loop pairs each target with its package.
go test -run Fuzz ./internal/blif ./internal/cube ./internal/mini ./internal/algebraic ./internal/network ./internal/core ./internal/atpg
for target in \
  'FuzzParse ./internal/blif' \
  'FuzzParseNoSemanticsCrash ./internal/blif' \
  'FuzzCoverOps ./internal/cube' \
  'FuzzComplement ./internal/cube' \
  'FuzzMinimize ./internal/mini' \
  'FuzzFactorLits ./internal/algebraic' \
  'FuzzWeakDivide ./internal/algebraic' \
  'FuzzLiteralFloor ./internal/algebraic' \
  'FuzzConeHashOrderInvariance ./internal/network' \
  'FuzzOverlayReadEquivalence ./internal/network' \
  'FuzzBatchDisjoint ./internal/core' \
  'FuzzWindowTrial ./internal/core' \
  'FuzzSubstitute ./internal/core' \
  'FuzzImplications ./internal/atpg' \
  'FuzzWitness ./internal/atpg'
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
# and 10k random-logic circuits in-process from the committed recipe; the
# scale tiers dominate this step's wall time.
# -benchmem adds allocs/op and B/op, which benchreg compares with tighter
# thresholds than ns/op: allocation counts are near-deterministic here, so
# drift means the engine's allocation behavior actually changed, and a
# benchmark recorded allocation-free warns as soon as it allocates.
# The pooled kernels (complement, minimizer, factoring, weak division,
# kernels, node simplification) and one node-form division trial on a
# warmed scratch (BenchmarkNodeTrial in internal/core, whose legs without
# gain are recorded at 0 allocs/op) run in their own invocation at 100
# iterations: a GC inside a single timed iteration empties sync.Pool, and
# the one re-allocation that follows would read as a whole extra alloc/op
# at -benchtime 1x. Both invocations feed one snapshot.
go build -o /tmp/benchreg.ci ./cmd/benchreg
{
  go test -run '^$' -bench 'BenchmarkSubstituteParallel$|BenchmarkNodeLookup$|BenchmarkPlannerBookkeeping$|BenchmarkSubstituteScale$|BenchmarkAblationLearning$|BenchmarkImplicationEngine$' -benchtime 1x -benchmem -timeout 60m .
  go test -run '^$' -bench 'BenchmarkComplement$|BenchmarkMinimize$|BenchmarkFactoring$|BenchmarkWeakDivision$|BenchmarkKernels$|BenchmarkSimplifyNode$|BenchmarkNodeTrial$' -benchtime 100x -benchmem -timeout 60m . ./internal/core
} | /tmp/benchreg.ci -emit /tmp/BENCH_substitute.json
/tmp/benchreg.ci -compare testdata/bench/BENCH_substitute.json /tmp/BENCH_substitute.json
