package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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
			if m.trivial || len(m.cands) == 0 {
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
// canonical reconvergence: x = a·b and y = b·c both feed z = x + y. Claims
// hold no fanout cone, so z is in neither; the pair must still conflict
// (footprint overlap), because under POS each is the other's divisor
// candidate (x' = a' + b' and y' = b' + c' share the cube b'), and must
// never claim places in the same batch, even though their fanins are
// disjoint apart from the shared PI.
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
	mx := s.buildMember(0, xid, "x")
	my := s.buildMember(1, yid, "y")
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
			if m.trivial || len(m.cands) == 0 {
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
// DAGs: same-batch claim disjointness, with every claim and rule input
// recomputed independently (via the observer and checkClaim), and
// byte-identity of the committed BLIF against a batch-off run. The seeded
// corpus includes the generator seed whose DAG contains a PO-reconvergent
// pair (verified in TestBatchPOReconvergentPairConflicts structurally; here
// the whole run must still commit identically).
func FuzzBatchDisjoint(f *testing.F) {
	f.Add(int64(5151), uint8(5), uint8(12))
	f.Add(int64(97531), uint8(4), uint8(8))
	f.Add(int64(43), uint8(6), uint8(14))
	f.Fuzz(func(t *testing.T, seed int64, nPI, nNode uint8) {
		pi := 2 + int(nPI)%7
		nodes := 2 + int(nNode)%16
		base := randomDAG(rand.New(rand.NewSource(seed)), pi, nodes)

		opt := Options{Config: Extended, POS: true, Pool: true, Workers: 4}
		on := base.Clone()
		_, done := observeBatches(t, func(m *batchMember) { checkClaim(t, on, opt, m) })
		defer done()
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
// the oracle): same candidates, same forms, same order, and the same
// dependence-refused nodes, on random DAGs across configs, with live fanout
// lists on and off. The second half drives an audited serial run node by
// node and enumerates every dividend after each commit on the run's own
// state, so the ranks under test are ones commits repaired, not reseeded.
func TestCandidateEnumerationEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	for trial := 0; trial < 12; trial++ {
		nw := randomDAG(r, 5, 12)
		if trial%2 == 0 {
			nw.EnableFanouts()
		}
		var es enumScratch
		es.rank.seed(nw, nw.TopoOrderIDs())
		for _, cfg := range []Config{Basic, Extended} {
			opt := Options{Config: cfg, POS: true}
			nc := newNodeCache(nw)
			for _, f := range nw.SortedNodeNames() {
				checkEnumeration(t, fmt.Sprintf("trial %d cfg %v", trial, cfg), nw, nc, f, opt, &es)
			}
		}
	}

	commits := 0
	for trial := 0; trial < 24; trial++ {
		base := randomDAG(r, 5, 12)
		for _, cfg := range []Config{Basic, Extended} {
			nw := base.Clone()
			if trial%2 == 0 {
				nw.EnableFanouts()
			}
			rn := newTestRun(nw, Options{Config: cfg, POS: true, Audit: true})
			ids := nw.TopoOrderIDs()
			for i := len(ids) - 1; i >= 0; i-- {
				if !rn.substituteNode(ids[i]) {
					continue
				}
				commits++
				for _, f := range nw.SortedNodeNames() {
					checkEnumeration(t, fmt.Sprintf("run %d cfg %v after commit at %s", trial, cfg, nw.SigName(ids[i])), nw, rn.nc, f, rn.opt, &rn.enum)
				}
			}
		}
	}
	if commits == 0 {
		t.Fatal("no run committed: repaired ranks were never enumerated against")
	}
}

// checkEnumeration compares f's enumeration on es with the full-scan
// oracle: the candidate list slot by slot, and the refused nodes as a set.
func checkEnumeration(t *testing.T, label string, nw *network.Network, nc *nodeCache, f string, opt Options, es *enumScratch) {
	t.Helper()
	fast := candidateDivisors(nw, nc, f, opt, es)
	slow, dep := fullScanCandidates(nw, nc, f, opt)
	if len(fast) != len(slow) {
		t.Fatalf("%s f=%s: fast path found %d candidates, full scan %d", label, f, len(fast), len(slow))
	}
	for i := range fast {
		if fast[i].name != slow[i].name || fast[i].form != slow[i].form {
			t.Fatalf("%s f=%s slot %d: fast (%s form %d) != slow (%s form %d)",
				label, f, i, fast[i].name, fast[i].form, slow[i].name, slow[i].form)
		}
	}
	if !sameIDs(es.dep, dep) {
		t.Fatalf("%s f=%s: refused %v, full scan refuses %v", label, f, es.dep, dep)
	}
}

// sameIDs reports whether a and b hold the same IDs, ignoring order.
func sameIDs(a, b []network.SigID) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
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
// and the same total sort key as candidateDivisors. It also returns the
// nodes in f's transitive fanout that pass a filter and lie more than two
// fanout steps from f: the ones the rank search must refuse as dependent
// on f.
func fullScanCandidates(nw *network.Network, nc *nodeCache, f string, opt Options) ([]candidate, []network.SigID) {
	fn := nw.Node(f)
	fid, _ := nw.IDOf(f)
	tfo := nw.TFOSetIDs(fid)
	var out []scored
	var dep []network.SigID
	for _, d := range nw.SortedNodeNames() {
		dn := nw.Node(d)
		did, _ := nw.IDOf(d)
		if d == f {
			continue
		}
		forms := containmentForms(nw, nc, fid, did, opt)
		if tfo[did] {
			if len(forms) > 0 && !withinTwoSteps(nw, fid, did) {
				dep = append(dep, did)
			}
			continue
		}
		overlap := 0
		for _, x := range dn.Fanins {
			if fn.FaninIndex(x) >= 0 {
				overlap++
			}
		}
		for _, fm := range forms {
			out = append(out, scored{candidate{name: d, form: fm}, overlap})
		}
	}
	slices.SortStableFunc(out, compareScored)
	cands := make([]candidate, len(out))
	for i, s := range out {
		cands[i] = s.c
	}
	return cands, dep
}

// withinTwoSteps reports whether node u reads f, or reads a node that
// reads f: the nodes enumeration refuses before any filter.
func withinTwoSteps(nw *network.Network, f, u network.SigID) bool {
	for _, v := range nw.FaninIDsOf(u) {
		if v == f || slices.Contains(nw.FaninIDsOf(v), f) {
			return true
		}
	}
	return false
}

// containmentForms lists the division forms of node d that pass dividend
// f's containment filters, as enumeration tests them: none for a constant
// or universal cover.
func containmentForms(nw *network.Network, nc *nodeCache, fid, did network.SigID, opt Options) []form {
	dn := nw.NodeByID(did)
	if dn == nil || dn.Cover.IsZero() || dn.Cover.NumCubes() == 0 ||
		(dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse()) {
		return nil
	}
	fSigs := nc.sigs(fid)
	var fcSigs [][]sigLit
	if opt.POS {
		if s, _, ok := nc.complSigs(fid); ok {
			fcSigs = s
		}
	}
	var forms []form
	if anyContainment(nc.sigs(did), fSigs) {
		forms = append(forms, formSOP)
	}
	if dcSigs, _, ok := nc.complSigs(did); ok {
		if anyContainment(dcSigs, fSigs) {
			forms = append(forms, formCompl)
		}
		if opt.POS && fcSigs != nil && anyContainment(dcSigs, fcSigs) {
			forms = append(forms, formPOS)
		}
	}
	return forms
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
	r := &run{
		nw: nw, opt: opt, maxTrials: 32, ev: newEvaluator(1), st: new(Stats),
		nc: newNodeCache(nw),
	}
	r.enum.rank.seed(nw, nw.TopoOrderIDs())
	return r
}

// TestBatchClaimCoversRuleInputs checks every claiming member's claim and
// rule inputs against checkClaim's independent recomputation, and that the
// claims of one batch stay pairwise disjoint. Cone forests, random DAGs and
// entangled random logic all have to form batches, so the check cannot
// pass vacuously.
func TestBatchClaimCoversRuleInputs(t *testing.T) {
	var nw *network.Network
	var opt Options
	batches, done := observeBatches(t, func(m *batchMember) { checkClaim(t, nw, opt, m) })
	defer done()

	check := func(label string, base *network.Network, o Options) {
		t.Helper()
		nw, opt = base, o
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

// checkClaim recomputes, independently of the scheduler, what member m
// must claim and what its eviction rules must read, on the batch-start
// network nw: the claim is exactly the node-driven signals of {f} ∪
// fanins(f) ∪ its candidates; the E1b guard is {f} ∪ fanins(f); and the
// rule inputs beyond the claim are the nodes in f's transitive fanout that
// pass one of f's containment filters and lie more than two fanout steps
// from f (E2), which the rank search refused.
func checkClaim(t *testing.T, nw *network.Network, opt Options, m *batchMember) {
	t.Helper()
	need := append([]network.SigID{m.id}, nw.FaninIDsOf(m.id)...)
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
			t.Errorf("%s: claim holds %s, which is neither f, a fanin nor a candidate", m.f, nw.SigName(id))
		}
		in[id] = true
	}
	for id := range want {
		if !in[id] {
			t.Errorf("%s: claim misses %s", m.f, nw.SigName(id))
		}
	}
	if guard := append([]network.SigID{m.id}, nw.FaninIDsOf(m.id)...); !sameIDs(m.guard, guard) {
		t.Errorf("%s: guard %v, want {f} ∪ fanins(f) = %v", m.f, m.guard, guard)
	}
	nc := newNodeCache(nw)
	var dep []network.SigID
	for id, inTFO := range nw.TFOSetIDs(m.id) {
		u := network.SigID(id)
		if inTFO && !withinTwoSteps(nw, m.id, u) && len(containmentForms(nw, nc, m.id, u, opt)) > 0 {
			dep = append(dep, u)
		}
	}
	if !sameIDs(m.dep, dep) {
		t.Errorf("%s: E2 reads refused nodes %v, want the filter-passing fanout cone %v", m.f, m.dep, dep)
	}
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

// TestBatchClaimsDeepFanoutCone pins that a dividend claims however deep
// its fanout cone: a chain dividend whose fanout cone holds over 4,096
// nodes builds a claiming member whose candidate list is the one
// substituteNode builds, and the whole run commits the batch-off BLIF.
func TestBatchClaimsDeepFanoutCone(t *testing.T) {
	const n = 4096 + 300
	base := chainDAG(n)
	nw := base.Clone()
	nw.EnableFanouts()
	r := newTestRun(nw, scaleOptions(1))
	s := newBatchScheduler(r)
	for _, f := range []string{"n40", "n100", "n190"} {
		id, _ := nw.IDOf(f)
		cone := 0
		for _, in := range nw.TFOSetIDs(id) {
			if in {
				cone++
			}
		}
		if cone <= 4096 {
			t.Fatalf("%s: fanout cone of %d nodes, want over 4,096", f, cone)
		}
		m := s.buildMember(0, id, f)
		want := candidateDivisors(nw, r.nc, f, r.opt, nil)
		if len(want) > r.maxTrials {
			want = want[:r.maxTrials]
		}
		if len(want) == 0 || len(m.cands) != len(want) {
			t.Fatalf("%s: member carries %d candidates, substituteNode builds %d", f, len(m.cands), len(want))
		}
		for i := range want {
			if m.cands[i].name != want[i].name || m.cands[i].form != want[i].form {
				t.Fatalf("%s slot %d: member candidate %+v, substituteNode's %+v", f, i, m.cands[i], want[i])
			}
		}
		if len(m.fp) == 0 || m.fp[0] != id {
			t.Fatalf("%s: deep-cone dividend does not claim: %v", f, m.fp)
		}
		s.release(m)
	}

	on, off := base.Clone(), base.Clone()
	opt := scaleOptions(2)
	Substitute(on, opt)
	opt.NoBatch = true
	Substitute(off, opt)
	if blif.ToString(on) != blif.ToString(off) {
		t.Fatal("batched run over deep-cone members differs from the batch-off run")
	}
}

// TestEvictPooledOnPoolNodeFanoutChange unit-tests rule E5 with hand-set
// marks: a member whose sequence ran the pooled fallback is evicted when
// one of its pool nodes — its first poolSize distinct SOP candidates — is
// support-dirty, whether the attempt planned or not, and kept when it did
// not run the fallback, or when the dirty node is a non-SOP candidate or
// beyond the pool.
func TestEvictPooledOnPoolNodeFanoutChange(t *testing.T) {
	nw := network.New("pool")
	nw.AddPI("a")
	nw.AddPI("b")
	cov := cube.ParseCover(2, "ab")
	for _, d := range []string{"f", "d1", "d2", "d3", "d4", "d5", "d6"} {
		nw.AddNode(d, []string{"a", "b"}, cov.Clone())
		nw.AddPO(d)
	}
	id := func(name string) network.SigID {
		x, _ := nw.IDOf(name)
		return x
	}
	s := newBatchScheduler(newTestRun(nw, Options{Config: Extended, Pool: true}))
	m := &batchMember{id: id("f"), guard: []network.SigID{id("f")}}
	m.f = "f"
	for _, c := range []struct {
		name string
		form form
	}{{"d1", formCompl}, {"d2", formSOP}, {"d3", formSOP}, {"d2", formPOS}, {"d4", formSOP}, {"d5", formSOP}, {"d6", formSOP}} {
		m.cands = append(m.cands, candidate{name: c.name, id: id(c.name), form: c.form})
	}
	for _, tc := range []struct {
		dirty           string
		pooled, planned bool
		want            bool
	}{
		{"d2", true, false, true},
		{"d5", true, false, true},
		{"d3", true, true, true},
		{"d2", false, false, false},
		{"d1", true, false, false}, // a complement-phase candidate is no pool node
		{"d6", true, false, false}, // the fifth SOP candidate is beyond the pool
	} {
		s.dirtySupp.Reset()
		s.dirtySupp.Mark(id(tc.dirty))
		m.pooled, m.ok = tc.pooled, tc.planned
		m.p = plan{}
		if tc.planned {
			m.p = plan{target: "f", gain: 1, dec: true, clone: nw.Clone()}
		}
		if got := s.evict(m); got != tc.want {
			t.Errorf("pooled=%v planned=%v, %s support-dirty: evict=%v, want %v", tc.pooled, tc.planned, tc.dirty, got, tc.want)
		}
	}
}

// TestEvictOnTouchedCone unit-tests rules E1a and E2 with hand-set touched
// marks on seeded ranks, every answer audited against the unpruned walk: a
// member is evicted when f, a claimed fanin or candidate, or a refused node
// is touched or lies downstream of a touched node, and kept when every
// source ranks at or below lo or no source reaches a touched node.
func TestEvictOnTouchedCone(t *testing.T) {
	nw := network.New("rules")
	for _, pi := range []string{"a", "b", "c"} {
		nw.AddPI(pi)
	}
	and := cube.ParseCover(2, "ab")
	for _, n := range []struct{ name, x, y string }{
		{"z", "a", "c"}, // unrelated to every source
		{"w", "a", "b"}, // upstream of f through x
		{"x", "w", "c"}, // f's node fanin
		{"f", "x", "b"},
		{"v", "b", "c"}, // upstream of the candidate
		{"d", "v", "a"}, // the candidate
		{"q", "a", "b"}, // upstream of the refused node only
		{"r", "f", "q"}, // refused: depends on f
		{"y", "r", "d"}, // downstream of every source
	} {
		nw.AddNode(n.name, []string{n.x, n.y}, and.Clone())
	}
	nw.AddPO("y")
	nw.AddPO("z")
	nw.EnableFanouts()
	id := func(name string) network.SigID {
		x, _ := nw.IDOf(name)
		return x
	}
	s := newBatchScheduler(newTestRun(nw, Options{Config: Basic, Audit: true}))
	m := &batchMember{
		id:    id("f"),
		fp:    []network.SigID{id("f"), id("x"), id("d")},
		dep:   []network.SigID{id("r")},
		guard: []network.SigID{id("f"), id("x"), id("b")},
	}
	m.f = "f"
	rank := s.r.enum.rank.r
	for _, tc := range []struct {
		touched []string
		want    bool
	}{
		{[]string{"f"}, true},
		{[]string{"w"}, true}, // f depends on w through its fanin x
		{[]string{"x"}, true},
		{[]string{"d"}, true},
		{[]string{"v"}, true},
		{[]string{"r"}, true},
		{[]string{"q"}, true},
		{[]string{"y", "q"}, true},
		{[]string{"y"}, false}, // every source ranks below lo
		{[]string{"z"}, false}, // the search runs and reaches no touched node
		{[]string{"z", "y"}, false},
		{nil, false},
	} {
		s.touched.Reset()
		s.touchedIDs, s.lo = s.touchedIDs[:0], math.MaxInt32
		for _, n := range tc.touched {
			s.touched.Mark(id(n))
			s.touchedIDs = append(s.touchedIDs, id(n))
			s.lo = min(s.lo, rank[id(n)])
		}
		if got := s.evict(m); got != tc.want {
			t.Errorf("touched %v: evict=%v, want %v", tc.touched, got, tc.want)
		}
	}
	if rank[id("z")] >= rank[id("f")] {
		t.Fatalf("z ranks %d, not below f's %d: the kept-by-search case never searches", rank[id("z")], rank[id("f")])
	}
}

// TestSweepAuditOnEntangledLogic runs the batched scheduler under
// Options.Audit on entangled random logic, where members are evicted, so
// every rank answer of rules E1a and E2 is checked against the unpruned
// walk; with the sweepCorrupt seam, which leaves a touched node unmarked,
// the same run must panic.
func TestSweepAuditOnEntangledLogic(t *testing.T) {
	base, err := bench.Generate("rand", 1000, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := scaleOptions(2)
	opt.Audit = true
	st := Substitute(base.Clone(), opt)
	if st.ConflictEvictions == 0 {
		t.Fatal("no member was evicted: the sweep audit checked no eviction")
	}
	defer func() { sweepCorrupt = false }()
	sweepCorrupt = true
	msg := func() (msg string) {
		defer func() {
			if p := recover(); p != nil {
				msg, _ = p.(string)
			}
		}()
		Substitute(base.Clone(), opt)
		return ""
	}()
	if !strings.Contains(msg, "sweep audit") {
		t.Fatalf("an unmarked touched node went unnoticed by the audit (panic %q)", msg)
	}
}
