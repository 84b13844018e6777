package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/verify"
)

// coneForestDAG builds G independent copies of the classic factoring gain
// over private PIs: d = py + pz and f = px·py + px·pz, so every group holds
// the committable substitution f = px·d — and all group cones are pairwise
// disjoint, so the batch scheduler provably packs multi-member batches and
// commits several plans per sweep.
func coneForestDAG(g int) *network.Network {
	nw := network.New("forest")
	for i := 0; i < g; i++ {
		p := string(rune('a'+i%26)) + string(rune('0'+i/26))
		px, py, pz := p+"x", p+"y", p+"z"
		nw.AddPI(px)
		nw.AddPI(py)
		nw.AddPI(pz)
		c1 := cube.New(2)
		c1.Set(0, cube.Pos)
		c2 := cube.New(2)
		c2.Set(1, cube.Pos)
		dcov := cube.NewCover(2)
		dcov.Add(c1)
		dcov.Add(c2)
		nw.AddNode(p+"_d", []string{py, pz}, dcov)
		nw.AddPO(p + "_d")
		f1 := cube.New(3)
		f1.Set(0, cube.Pos)
		f1.Set(1, cube.Pos)
		f2 := cube.New(3)
		f2.Set(0, cube.Pos)
		f2.Set(2, cube.Pos)
		fcov := cube.NewCover(3)
		fcov.Add(f1)
		fcov.Add(f2)
		nw.AddNode(p+"_f", []string{px, py, pz}, fcov)
		nw.AddPO(p + "_f")
	}
	return nw
}

// observeBatches installs a batchObserver that fails the test if any two
// claiming members of one batch have intersecting claim footprints, runs
// check (unless nil) on every claiming member, and counts multi-member
// batches. Returns the counter; the caller must defer the returned
// teardown.
func observeBatches(t *testing.T, check func(m *batchMember)) (*int, func()) {
	t.Helper()
	batches := new(int)
	batchObserver = func(members []*batchMember) {
		claiming := 0
		owner := make(map[network.SigID]int)
		for mi, m := range members {
			if m.trivial || m.solo || len(m.cands) == 0 {
				continue
			}
			claiming++
			if check != nil {
				check(m)
			}
			for _, id := range m.fp {
				if prev, dup := owner[id]; dup {
					t.Errorf("batch members %d and %d share footprint signal %d — cones not disjoint",
						prev, mi, id)
				}
				owner[id] = mi
			}
		}
		if claiming >= 2 {
			*batches++
		}
	}
	return batches, func() { batchObserver = nil }
}

// TestBatchConesDisjoint is the scheduler's claim-disjointness property
// test: over networks engineered to have many disjoint cones AND over
// random DAGs, any two candidates scheduled in one batch have disjoint
// claim footprints. The cone forest guarantees the test actually observes
// multi-member batches (a vacuous pass is rejected).
func TestBatchConesDisjoint(t *testing.T) {
	batches, done := observeBatches(t, nil)
	defer done()

	Substitute(coneForestDAG(12), Options{Config: Extended, POS: true, Workers: 4})
	if *batches == 0 {
		t.Fatal("cone forest produced no multi-member batch — the property test never fired")
	}

	r := rand.New(rand.NewSource(5151))
	for trial := 0; trial < 6; trial++ {
		Substitute(randomDAG(r, 6, 14), Options{Config: Extended, POS: true, Pool: true, Workers: 4})
	}
}

// TestBatchPOReconvergentPairConflicts pins the conflict model on the
// canonical reconvergence: x = a·b and y = b·c both feed z = x + y, so
// z sits in BOTH fanout cones — the pair MUST conflict (footprint overlap)
// and must never claim places in the same batch, even though their fanins
// are disjoint apart from the shared PI.
func TestBatchPOReconvergentPairConflicts(t *testing.T) {
	mk := func() *network.Network {
		nw := network.New("reconv")
		for _, pi := range []string{"a", "b", "c"} {
			nw.AddPI(pi)
		}
		and := cube.New(2)
		and.Set(0, cube.Pos)
		and.Set(1, cube.Pos)
		covAnd := cube.NewCover(2)
		covAnd.Add(and)
		nw.AddNode("x", []string{"a", "b"}, covAnd.Clone())
		nw.AddNode("y", []string{"b", "c"}, covAnd.Clone())
		c1 := cube.New(2)
		c1.Set(0, cube.Pos)
		c2 := cube.New(2)
		c2.Set(1, cube.Pos)
		covOr := cube.NewCover(2)
		covOr.Add(c1)
		covOr.Add(c2)
		nw.AddNode("z", []string{"x", "y"}, covOr)
		nw.AddPO("z")
		return nw
	}

	// Direct conflict check on the scheduler's own footprint builder.
	nw := mk()
	xid, _ := nw.IDOf("x")
	yid, _ := nw.IDOf("y")
	nw.EnableFanouts()
	s := newBatchScheduler(newTestRun(nw, Options{Config: Extended, POS: true}))
	mx := s.buildMember(0, xid, "x", false)
	my := s.buildMember(1, yid, "y", false)
	if mx == nil || my == nil {
		t.Fatal("footprint builder rejected a three-node cone as over-cap")
	}
	overlap := false
	for _, i := range mx.fp {
		for _, j := range my.fp {
			if i == j {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Fatal("PO-reconvergent pair extracted disjoint footprints — conflict model broken")
	}

	// And through the live scheduler: x and y must never co-claim.
	batchObserver = func(members []*batchMember) {
		hasX, hasY := false, false
		for _, m := range members {
			if m.trivial || m.solo || len(m.cands) == 0 {
				continue
			}
			hasX = hasX || m.f == "x"
			hasY = hasY || m.f == "y"
		}
		if hasX && hasY {
			t.Error("reconvergent pair x,y scheduled in one batch")
		}
	}
	defer func() { batchObserver = nil }()
	Substitute(mk(), Options{Config: Extended, POS: true, Workers: 4})
}

// FuzzBatchDisjoint fuzzes the scheduler's two contracts at once on random
// DAGs: same-batch cone disjointness (via the observer) and byte-identity
// of the committed BLIF against a batch-off run. The seeded corpus includes
// the generator seed whose DAG contains a PO-reconvergent pair (verified in
// TestBatchPOReconvergentPairConflicts structurally; here the whole run
// must still commit identically).
func FuzzBatchDisjoint(f *testing.F) {
	f.Add(int64(5151), uint8(5), uint8(12))
	f.Add(int64(97531), uint8(4), uint8(8))
	f.Add(int64(43), uint8(6), uint8(14))
	f.Fuzz(func(t *testing.T, seed int64, nPI, nNode uint8) {
		pi := 2 + int(nPI)%7
		nodes := 2 + int(nNode)%16
		base := randomDAG(rand.New(rand.NewSource(seed)), pi, nodes)

		batches, done := observeBatches(t, nil)
		defer done()
		_ = batches

		opt := Options{Config: Extended, POS: true, Pool: true, Workers: 4}
		on := base.Clone()
		Substitute(on, opt)
		optOff := opt
		optOff.NoBatch = true
		off := base.Clone()
		Substitute(off, optOff)
		if a, b := blif.ToString(on), blif.ToString(off); a != b {
			t.Fatalf("batch scheduler changed the committed network (seed %d pi %d nodes %d)\nbatch:\n%s\nserial:\n%s",
				seed, pi, nodes, a, b)
		}
		if !verify.Equivalent(base, on) {
			t.Fatalf("batched run broke equivalence (seed %d)", seed)
		}
	})
}

// TestCandidateEnumerationEquivalence locks the support-local enumeration
// to a full scan of every node (the historical enumeration, kept here as
// the oracle): same candidates, same forms, same order, on random DAGs
// across configs, with live fanout lists on and off.
func TestCandidateEnumerationEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	for trial := 0; trial < 12; trial++ {
		nw := randomDAG(r, 5, 12)
		if trial%2 == 0 {
			nw.EnableFanouts()
		}
		var es enumScratch
		for _, cfg := range []Config{Basic, Extended} {
			opt := Options{Config: cfg, POS: true}
			nc := newNodeCache(nw)
			for _, f := range nw.SortedNodeNames() {
				fast := candidateDivisors(nw, nc, f, opt, &es)
				slow := fullScanCandidates(nw, nc, f, opt)
				if len(fast) != len(slow) {
					t.Fatalf("trial %d cfg %v f=%s: fast path found %d candidates, full scan %d",
						trial, cfg, f, len(fast), len(slow))
				}
				for i := range fast {
					if fast[i].name != slow[i].name || fast[i].form != slow[i].form {
						t.Fatalf("trial %d cfg %v f=%s slot %d: fast (%s form %d) != slow (%s form %d)",
							trial, cfg, f, i, fast[i].name, fast[i].form, slow[i].name, slow[i].form)
					}
				}
			}
		}
	}
}

// TestBatchSchedulerCommits proves the batch path actually commits through
// sweeps (BatchCommits > 0 on a commit-rich input) and that the new
// counters satisfy their arithmetic: every discarded plan and batch commit
// is backed by speculation.
func TestBatchSchedulerCommits(t *testing.T) {
	st := Substitute(coneForestDAG(12), Options{Config: Extended, POS: true, Workers: 4})
	if st.BatchCommits == 0 {
		t.Errorf("no batch commits on the cone forest: %+v", st)
	}
	if st.SpeculatedTrials == 0 {
		t.Errorf("no speculation recorded: %+v", st)
	}
	if st.Substitutions < st.BatchCommits {
		t.Errorf("BatchCommits %d exceeds Substitutions %d", st.BatchCommits, st.Substitutions)
	}
}

// fullScanCandidates is the enumeration oracle: every node outside f's
// transitive fanout, in sorted-name order, through the same form filters
// and the same total sort key as candidateDivisors.
func fullScanCandidates(nw *network.Network, nc *nodeCache, f string, opt Options) []candidate {
	fn := nw.Node(f)
	fid, _ := nw.IDOf(f)
	fSigs := nc.sigs(fid)
	var fcSigs [][]sigLit
	if opt.POS {
		if s, _, ok := nc.complSigs(fid); ok {
			fcSigs = s
		}
	}
	tfo := nw.TFOSetIDs(fid)
	var out []scored
	for _, d := range nw.SortedNodeNames() {
		dn := nw.Node(d)
		did, _ := nw.IDOf(d)
		if d == f || tfo[did] {
			continue
		}
		if dn.Cover.IsZero() || dn.Cover.NumCubes() == 0 ||
			(dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse()) {
			continue
		}
		overlap := 0
		for _, x := range dn.Fanins {
			if fn.FaninIndex(x) >= 0 {
				overlap++
			}
		}
		if anyContainment(nc.sigs(did), fSigs) {
			out = append(out, scored{candidate{name: d}, overlap})
		}
		if dcSigs, _, ok := nc.complSigs(did); ok {
			if anyContainment(dcSigs, fSigs) {
				out = append(out, scored{candidate{name: d, form: formCompl}, overlap})
			}
			if opt.POS && fcSigs != nil && anyContainment(dcSigs, fcSigs) {
				out = append(out, scored{candidate{name: d, form: formPOS}, overlap})
			}
		}
	}
	slices.SortStableFunc(out, compareScored)
	cands := make([]candidate, len(out))
	for i, s := range out {
		cands[i] = s.c
	}
	return cands
}

// TestBatchCarryRebuiltAfterCommit pins when the batch-ending member is
// reused. g reads f, and d = y + z is a divisor of both. Outputs first, g
// and then f are scanned, and f's claim conflicts with g's, so the first
// batch is {g} alone and f carries over to the next batch. The carried f
// is reused there only when nothing committed in between: when g's trial
// commits (g = fy + fz by d) f must be built afresh, and when it does not
// (g = fy) the carried member must be the one the next batch starts with.
// Released members are recycled, so a rebuilt f may occupy the carried
// struct: the build serial number, not the pointer, tells them apart.
func TestBatchCarryRebuiltAfterCommit(t *testing.T) {
	for _, tc := range []struct {
		gFanins []string
		gCover  string
		commits bool
	}{
		{[]string{"f", "y", "z"}, "ab + ac", true},
		{[]string{"f", "y"}, "ab", false},
	} {
		nw := network.New("carry")
		for _, pi := range []string{"x", "y", "z"} {
			nw.AddPI(pi)
		}
		nw.AddNode("d", []string{"y", "z"}, cube.ParseCover(2, "a + b"))
		nw.AddNode("f", []string{"x", "y", "z"}, cube.ParseCover(3, "ab + ac"))
		nw.AddNode("g", tc.gFanins, cube.ParseCover(len(tc.gFanins), tc.gCover))
		nw.AddPO("g")
		nw.AddPO("d")
		nw.EnableFanouts()
		r := newTestRun(nw, Options{Config: Basic})
		s := newBatchScheduler(r)
		r.sched = s
		s.startPass()

		ids := nw.TopoOrderIDs()
		top := len(ids) - 1
		took, _ := s.runBatch(ids, top)
		carried := s.carry
		if took != 1 || carried == nil || carried.pos != top-1 || carried.f != "f" {
			t.Fatalf("commits=%v: first batch took %d with carry %+v, want {g} and f carried", tc.commits, took, carried)
		}
		carriedBuild := carried.build
		if got := r.st.Substitutions == 1; got != tc.commits {
			t.Fatalf("commits=%v: g's trial committed %d substitutions", tc.commits, r.st.Substitutions)
		}
		s.runBatch(ids, top-took)
		if head := s.members[0]; head.f != "f" {
			t.Fatalf("commits=%v: second batch starts at %q, want f", tc.commits, head.f)
		}
		if reused := s.members[0].build == carriedBuild; reused == tc.commits {
			t.Errorf("commits=%v: carried member reused=%v", tc.commits, reused)
		}
		if s.carry != nil {
			t.Errorf("commits=%v: the carry was not consumed", tc.commits)
		}
	}
}

// newTestRun is the run state Substitute builds, for driving one scheduler
// step at a time. The caller enables nw's fanout lists.
func newTestRun(nw *network.Network, opt Options) *run {
	return &run{
		nw: nw, opt: opt, maxTrials: 32, ev: newEvaluator(1), st: new(Stats),
		nc: newNodeCache(nw),
	}
}

// TestBatchClaimCoversRuleInputs checks the claim against what the eviction
// rules read: every claiming member's footprint holds the node-driven
// signals of {f} ∪ fanins(f) ∪ TFO(f) ∪ its candidates, computed here
// independently of the scheduler's walk, and nothing else, and the claims
// of one batch stay pairwise disjoint. Cone forests, random DAGs and
// entangled random logic all have to form batches, so the check cannot
// pass vacuously.
func TestBatchClaimCoversRuleInputs(t *testing.T) {
	var nw *network.Network
	batches, done := observeBatches(t, func(m *batchMember) {
		need := append([]network.SigID{m.id}, nw.FaninIDsOf(m.id)...)
		for id, inTFO := range nw.TFOSetIDs(m.id) {
			if inTFO {
				need = append(need, network.SigID(id))
			}
		}
		for _, c := range m.cands {
			did, _ := nw.IDOf(c.name)
			need = append(need, did)
		}
		want := make(map[network.SigID]bool, len(need))
		for _, id := range need {
			if nw.NodeByID(id) != nil {
				want[id] = true
			}
		}
		in := make(map[network.SigID]bool, len(m.fp))
		for _, id := range m.fp {
			if !want[id] {
				t.Errorf("%s: claim holds %s, which no rule E1a/E1b/E2 reads", m.f, nw.SigName(id))
			}
			in[id] = true
		}
		for id := range want {
			if !in[id] {
				t.Errorf("%s: claim misses %s, which rules E1a/E1b/E2 read", m.f, nw.SigName(id))
			}
		}
	})
	defer done()

	check := func(label string, base *network.Network, opt Options) {
		t.Helper()
		nw = base
		*batches = 0
		Substitute(nw, opt)
		if *batches == 0 {
			t.Errorf("%s formed no multi-member batch — the check never fired", label)
		}
	}
	check("cone forest", coneForestDAG(12), Options{Config: Extended, POS: true, Workers: 2})
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 4; trial++ {
		check("random DAG", randomDAG(r, 6, 24), Options{Config: Extended, POS: true, Pool: true, Workers: 2})
	}
	ent, err := bench.Generate("rand", 2000, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("rand2000", ent, scaleOptions(2))
}

// scaleOptions is the scale-tier recipe of BenchmarkSubstituteScale and
// the bdsbench generated workloads: the per-trial cost stays independent of
// circuit size, so a run is dominated by scheduling.
func scaleOptions(workers int) Options {
	return Options{
		Config: Basic, WindowDepth: 3,
		MaxPasses: 1, MaxDivisorTrials: 8, Workers: workers,
	}
}

// TestBatchFormsOnEntangledLogic pins that entangled random logic batches:
// a claim covers only what the eviction rules read, not f's whole fanin
// cone, so generated random circuits speculate trials — and still commit
// the BLIF of the batch-off run at every worker count.
func TestBatchFormsOnEntangledLogic(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		base, err := bench.Generate("rand", 2000, 32, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref := base.Clone()
		off := scaleOptions(1)
		off.NoBatch = true
		Substitute(ref, off)
		want := blif.ToString(ref)
		for _, workers := range []int{1, 2, 4} {
			nw := base.Clone()
			st := Substitute(nw, scaleOptions(workers))
			if st.SpeculatedTrials == 0 {
				t.Errorf("seed %d w%d: no trial speculated (%d batch commits)", seed, workers, st.BatchCommits)
			}
			if blif.ToString(nw) != want {
				t.Fatalf("seed %d w%d: batched BLIF differs from the batch-off run", seed, workers)
			}
		}
	}
}

// chainDAG builds a chain of n nodes over 32 PIs: node i reads node i-1
// and two PIs, so its fanout cone holds every later node, and the cubes
// repeat along the chain, so dividends have divisor candidates.
func chainDAG(n int) *network.Network {
	const k = 32
	nw := network.New("chain")
	for i := 0; i < k; i++ {
		nw.AddPI(fmt.Sprintf("p%d", i))
	}
	prev := fmt.Sprintf("p%d", k-1)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		fanins := []string{prev, fmt.Sprintf("p%d", i%k), fmt.Sprintf("p%d", (i+7)%k)}
		nw.AddNode(name, fanins, cube.ParseCover(3, "ab + ac + b'c"))
		prev = name
	}
	nw.AddPO(prev)
	return nw
}

// TestBatchSoloResumesCappedWalk pins the over-cap path of phase A. Behind
// a claiming member, an over-cap dividend is not built at all; with none
// ahead of it, its capped walk resumes uncapped and it becomes a solo
// member carrying the candidate list substituteNode would build. The whole
// run still commits the batch-off BLIF.
func TestBatchSoloResumesCappedWalk(t *testing.T) {
	base := chainDAG(batchConeCap + 200)
	nw := base.Clone()
	nw.EnableFanouts()
	r := newTestRun(nw, scaleOptions(1))
	s := newBatchScheduler(r)
	for _, f := range []string{"n40", "n100", "n190"} {
		id, _ := nw.IDOf(f)
		if m := s.buildMember(0, id, f, false); m != nil {
			t.Fatalf("%s: over-cap dividend built behind a claiming member", f)
		}
		m := s.buildMember(0, id, f, true)
		if m == nil || !m.solo || len(m.fp) != 0 {
			t.Fatalf("%s: over-cap dividend alone in its batch is not an unclaimed solo: %+v", f, m)
		}
		want := candidateDivisors(nw, r.nc, f, r.opt, nil)
		if len(want) > r.maxTrials {
			want = want[:r.maxTrials]
		}
		if len(want) == 0 || len(m.cands) != len(want) {
			t.Fatalf("%s: solo carries %d candidates, substituteNode builds %d", f, len(m.cands), len(want))
		}
		for i := range want {
			if m.cands[i].name != want[i].name || m.cands[i].form != want[i].form {
				t.Fatalf("%s slot %d: solo candidate %+v, substituteNode's %+v", f, i, m.cands[i], want[i])
			}
		}
		s.release(m)
	}

	on, off := base.Clone(), base.Clone()
	opt := scaleOptions(2)
	Substitute(on, opt)
	opt.NoBatch = true
	Substitute(off, opt)
	if blif.ToString(on) != blif.ToString(off) {
		t.Fatal("batched run over solo members differs from the batch-off run")
	}
}
