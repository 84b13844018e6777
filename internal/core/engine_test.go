package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/mini"
	"repro/internal/network"
	"repro/internal/verify"
)

// substituteBothWays runs Substitute serially and with an 8-worker pool on
// clones of base and asserts the committed networks are byte-identical
// (BLIF-serialized) and every Stats counter matches. Returns the serial
// result for further checks.
func substituteBothWays(t *testing.T, base *network.Network, opt Options, label string) *network.Network {
	t.Helper()
	serial := base.Clone()
	optSerial := opt
	optSerial.Workers = 1
	stS := Substitute(serial, optSerial)
	par := base.Clone()
	optPar := opt
	optPar.Workers = 8
	stP := Substitute(par, optPar)
	if a, b := blif.ToString(serial), blif.ToString(par); a != b {
		t.Fatalf("%s: Workers=8 diverged from Workers=1\nserial (stats %+v):\n%s\nparallel (stats %+v):\n%s",
			label, stS, a, stP, b)
	}
	stS.PassTimes, stP.PassTimes = nil, nil
	if !reflect.DeepEqual(stS, stP) {
		t.Errorf("%s: stats diverged: serial %+v parallel %+v", label, stS, stP)
	}
	return serial
}

func TestSubstituteParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		base := randomDAG(r, 4, 7)
		for _, cfg := range []Config{Basic, Extended, ExtendedGDC} {
			got := substituteBothWays(t, base, Options{Config: cfg, POS: true, Pool: true}, "rand")
			if !verify.Equivalent(base, got) {
				t.Fatalf("trial %d cfg %v: equivalence broken", trial, cfg)
			}
		}
	}
}

func TestSubstituteParallelMatchesSerialVariants(t *testing.T) {
	// Option corners where the per-node schedule differs from the plain
	// first-positive walk: best-gain acceptance, depth-budget rejection
	// (commit-undo mid-scan), and windowed trials.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		base := randomDAG(r, 4, 7)
		_, depth := base.Levels()
		substituteBothWays(t, base, Options{Config: Extended, POS: true, BestGain: true}, "bestgain")
		substituteBothWays(t, base, Options{Config: Extended, POS: true, DepthBudget: depth}, "depthbudget")
		substituteBothWays(t, base, Options{Config: Extended, POS: true, WindowDepth: 2}, "window")
	}
	substituteBothWays(t, gainNetwork(), Options{Config: Basic}, "gain")
}

// TestSubstituteStatsWorkerInvariant: the per-node path is strictly serial
// and the batch partition never depends on the worker count, so every
// Stats counter — not only the committed BLIF — is identical at any worker
// count. Covered: ext+GDC (always on the serial path), NoBatch runs, and
// batched runs, over multi-pass runs with Audit on. The committed BLIF
// must also agree across the batch on/off axis.
func TestSubstituteStatsWorkerInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(97531))
	bases := []*network.Network{gainNetwork(), coneForestDAG(6)}
	for i := 0; i < 4; i++ {
		bases = append(bases, randomDAG(r, 4, 7))
	}
	for bi, base := range bases {
		for _, cfg := range []Config{Basic, Extended, ExtendedGDC} {
			wantBLIF := ""
			for _, noBatch := range []bool{false, true} {
				var want Stats
				for wi, workers := range []int{1, 2, 4} {
					nw := base.Clone()
					st := Substitute(nw, Options{
						Config: cfg, POS: true, Pool: true, MaxPasses: 3,
						Workers: workers, Audit: true, NoBatch: noBatch,
					})
					st.PassTimes = nil
					if got := blif.ToString(nw); wantBLIF == "" {
						wantBLIF = got
					} else if got != wantBLIF {
						t.Fatalf("base %d cfg %v batch=%v workers=%d: committed network diverged\nwant:\n%s\ngot:\n%s",
							bi, cfg, !noBatch, workers, wantBLIF, got)
					}
					if wi == 0 {
						want = st
					} else if !reflect.DeepEqual(st, want) {
						t.Errorf("base %d cfg %v batch=%v: stats at workers=%d differ from workers=1:\nw1 %+v\nw%d %+v",
							bi, cfg, !noBatch, workers, want, workers, st)
					}
				}
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	var acc Stats
	acc.Accumulate(Stats{LitsBefore: 10, LitsAfter: 8, Substitutions: 2, Passes: 1, DivisorTrials: 5})
	acc.Accumulate(Stats{LitsBefore: 8, LitsAfter: 7, Substitutions: 1, Passes: 2, DivisorTrials: 3})
	if acc.LitsBefore != 10 || acc.LitsAfter != 7 {
		t.Errorf("literal tracking wrong: %+v", acc)
	}
	if acc.Substitutions != 3 || acc.Passes != 3 || acc.DivisorTrials != 8 {
		t.Errorf("counter sums wrong: %+v", acc)
	}
}

// TestStatsAccumulateAssociative: folding (a then b) then c equals folding a
// then (b accumulated with c) — the property that lets a multi-call flow
// (script.ResubRARWith across passes, the experiment harness across cells)
// merge stats in any grouping. Exercised with every counter populated.
func TestStatsAccumulateAssociative(t *testing.T) {
	mk := func(k int) Stats {
		return Stats{
			Substitutions:     k,
			POSSubstitutions:  2 * k,
			Decompositions:    3 * k,
			WiresRemoved:      4 * k,
			LitsBefore:        100 + k,
			LitsAfter:         90 + k,
			DivisorTrials:     5 * k,
			DepthRejected:     9 * k,
			SigCacheHits:      10 * k,
			SigCacheMisses:    11 * k,
			ComplCacheHits:    15 * k,
			ComplCacheMisses:  16 * k,
			SpeculatedTrials:  17 * k,
			DiscardedPlans:    18 * k,
			BatchCommits:      19 * k,
			ConflictEvictions: 20 * k,
			Passes:            k,
			PassTimes:         []time.Duration{time.Duration(k) * time.Millisecond},
		}
	}
	a, b, c := mk(1), mk(2), mk(3)

	var left Stats
	left.Accumulate(a)
	left.Accumulate(b)
	left.Accumulate(c)

	bc := b
	bc.Accumulate(c)
	var right Stats
	right.Accumulate(a)
	right.Accumulate(bc)

	if !reflect.DeepEqual(left, right) {
		t.Errorf("Accumulate is not associative:\n(a+b)+c = %+v\na+(b+c) = %+v", left, right)
	}
	if left.ConflictEvictions != 20*6 || left.SigCacheHits != 10*6 {
		t.Errorf("counters not summed: %+v", left)
	}
}

func TestSubstituteObservabilityCounters(t *testing.T) {
	nw := gainNetwork()
	st := Substitute(nw, Options{Config: Basic})
	if st.Passes == 0 || len(st.PassTimes) != st.Passes {
		t.Errorf("pass accounting wrong: %+v", st)
	}
	if st.DivisorTrials == 0 {
		t.Errorf("no divisor trials recorded: %+v", st)
	}
	if st.SigCacheHits+st.SigCacheMisses == 0 {
		t.Errorf("no signature cache traffic recorded: %+v", st)
	}
}

// TestCommitInvalidatesNodeCache drives commitPlan with each kind of plan
// on the suite circuits — node bodies without additions (a node-form
// division, or a whole-divisor extended one), node bodies with an added
// core (extended division's decomposition) and a clone (a pooled
// cross-node core, committed by CopyFrom) — and after every commit
// compares each filled entry of the node cache with a fresh cache for the
// same ID. An entry the commit should have dropped reads the node's old
// cover or fanin space.
func TestCommitInvalidatesNodeCache(t *testing.T) {
	const (
		bodiesKind = iota
		addedKind
		cloneKind
	)
	var commits [3]int
	suiteCommits(t, Options{Config: Extended, POS: true, Pool: true}, func(c suiteCommit) {
		if !c.committed {
			fillNodeCache(c.nw, c.nc)
			return
		}
		kind := bodiesKind
		if c.p.clone != nil {
			kind = cloneKind
		} else if len(c.p.added) > 0 {
			kind = addedKind
		}
		commits[kind]++
		checkNodeCache(t, c.nw, c.nc, fmt.Sprintf("%s kind %d f=%s", c.name, kind, c.p.target))
	})
	for kind, n := range commits {
		if n == 0 {
			t.Errorf("plan kind %d never committed on the suite (%v)", kind, commits)
		}
	}
}

// suiteCommit is one chosen plan of suiteCommits, seen before and after
// its commit.
type suiteCommit struct {
	name      string // suite circuit
	nw        *network.Network
	nc        *nodeCache
	seq       *trialSeq // the dividend's sequence; seq.next-1 is the plan's slot
	p         plan
	committed bool
}

// suiteCommits drives the engine's planning routine and committer over
// every suite circuit, outputs first, one trial sequence per dividend as
// the serial driver runs it, and calls check with each chosen plan before
// and after its commit.
func suiteCommits(t *testing.T, opt Options, check func(suiteCommit)) {
	t.Helper()
	for _, name := range bench.Names() {
		nw := bench.Get(name)
		nw.EnableFanouts()
		nc := newNodeCache(nw)
		var st Stats
		ids := append([]network.SigID(nil), nw.TopoOrderIDs()...)
		for i := len(ids) - 1; i >= 0; i-- {
			fn := nw.NodeByID(ids[i])
			if fn == nil || fn.Cover.IsZero() {
				continue
			}
			seq := trialSeq{f: fn.Name, cands: candidateDivisors(nw, nc, fn.Name, opt, nil)}
			p, ok := seq.advance(newScratch(), nw, opt)
			if !ok {
				continue
			}
			check(suiteCommit{name, nw, nc, &seq, p, false})
			if !commitPlan(nw, p, opt, nc, &st) {
				t.Fatalf("%s: commit of f=%s failed", name, p.target)
			}
			check(suiteCommit{name, nw, nc, &seq, p, true})
		}
	}
}

// TestChosenNodePlanInstalledUnchanged checks that the planner, not the
// committer, finishes a node-form plan: the chosen plan's body is the raw
// division (the same slot planned again) minimized when no larger and
// normalized, and after the commit the dividend's fanins and cover equal
// that body byte for byte.
func TestChosenNodePlanInstalledUnchanged(t *testing.T) {
	nodeCommits := 0
	for _, opt := range []Options{{Config: Basic, POS: true}, {Config: Extended, POS: true, WindowDepth: 2}} {
		suiteCommits(t, opt, func(c suiteCommit) {
			name, nw, p := c.name, c.nw, c.p
			if !p.node {
				return
			}
			body := p.bodies[0]
			if !c.committed {
				raw, ok := planPair(newScratch(), nw, p.target, c.seq.cands[c.seq.next-1], opt)
				if !ok || !raw.node {
					t.Fatalf("%s f=%s: the chosen slot plans no node-form division", name, p.target)
				}
				want := raw.bodies[0].Cover
				if m := mini.Minimize(want, mini.Options{}); m.NumCubes() <= want.NumCubes() && m.NumLits() <= want.NumLits() {
					want = m
				}
				fanins, cover := network.Normalize(raw.bodies[0].Fanins, want)
				if err := compareNodeFn(body.Fanins, body.Cover, fanins, cover); err != nil {
					t.Fatalf("%s f=%s: chosen body is not the finished division: %v", name, p.target, err)
				}
				return
			}
			got := nw.Node(p.target)
			if err := compareNodeFn(got.Fanins, got.Cover, body.Fanins, body.Cover); err != nil {
				t.Fatalf("%s f=%s: committed node differs from the plan body: %v", name, p.target, err)
			}
			nodeCommits++
		})
	}
	if nodeCommits == 0 {
		t.Fatal("no node-form plan committed on the suite")
	}
}

// TestWindowedWholeDivisorCommitsNormalizedCover covers the depth-1 suite
// cells where extended division's core is the whole divisor and its
// unwindowed division beats the windowed basic one: the plan is not
// node-form, so the planner does not minimize it, and the commit installs
// the unwindowed division's cover normalized and nothing else.
func TestWindowedWholeDivisorCommitsNormalizedCover(t *testing.T) {
	opt := Options{Config: Extended, WindowDepth: 1}
	wins := 0
	var want *network.Node
	suiteCommits(t, opt, func(c suiteCommit) {
		name, nw, p := c.name, c.nw, c.p
		if p.node || p.clone != nil || len(p.added) > 0 {
			return
		}
		if !c.committed {
			res, ok := divide(newScratch(), nw, nil, p.target, c.seq.cands[c.seq.next-1], opt.Config, 0)
			if !ok {
				t.Fatalf("%s f=%s: whole-divisor plan without an unwindowed division", name, p.target)
			}
			fanins, cover := network.Normalize(res.Fanins, res.Cover)
			want = &network.Node{Name: p.target, Fanins: fanins, Cover: cover}
			return
		}
		got := nw.Node(p.target)
		if err := compareNodeFn(got.Fanins, got.Cover, want.Fanins, want.Cover); err != nil {
			t.Fatalf("%s f=%s: committed node is not the normalized unwindowed division: %v", name, p.target, err)
		}
		wins++
	})
	if wins == 0 {
		t.Fatal("no whole-divisor plan won at depth 1 on the suite")
	}
}

// fillNodeCache fills every entry of nc for the live nodes of nw.
func fillNodeCache(nw *network.Network, nc *nodeCache) {
	for _, id := range nw.OrderIDs() {
		if nw.NodeByID(id) != nil {
			nc.sigs(id)
			nc.complSigs(id)
			nc.complMin(id)
		}
	}
}

// checkNodeCache compares every filled entry of nc with a fresh cache of
// nw's current state.
func checkNodeCache(t *testing.T, nw *network.Network, nc *nodeCache, site string) {
	t.Helper()
	fresh := newNodeCache(nw)
	for i := range nc.e {
		id, e := network.SigID(i), nc.e[i]
		label := fmt.Sprintf("%s: entry of %s", site, nw.SigName(id))
		if e.hasSigs && !reflect.DeepEqual(e.sigs, fresh.sigs(id)) {
			t.Fatalf("%s: stale cube signatures", label)
		}
		if e.hasCompl || e.complBad {
			c, ok := fresh.compl(id)
			if ok == e.complBad || (ok && compareNodeFn(nil, e.compl, nil, c) != nil) {
				t.Fatalf("%s: stale complement", label)
			}
		}
		if e.hasComplSigs {
			if s, _, _ := fresh.complSigs(id); !reflect.DeepEqual(e.complSigs, s) {
				t.Fatalf("%s: stale complement signatures", label)
			}
		}
		if e.hasMin {
			if m, _ := fresh.complMin(id); compareNodeFn(nil, e.min, nil, m) != nil {
				t.Fatalf("%s: stale minimized complement", label)
			}
		}
	}
}
