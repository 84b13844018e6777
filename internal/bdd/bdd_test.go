package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cube"
)

func randomCover(r *rand.Rand, n, maxCubes int) cube.Cover {
	f := cube.NewCover(n)
	k := r.Intn(maxCubes) + 1
	for i := 0; i < k; i++ {
		c := cube.New(n)
		for v := 0; v < n; v++ {
			switch r.Intn(3) {
			case 0:
				c.Set(v, cube.Pos)
			case 1:
				c.Set(v, cube.Neg)
			}
		}
		f.Add(c)
	}
	return f
}

func assignOf(m, n int) []bool {
	out := make([]bool, n)
	for v := 0; v < n; v++ {
		out[v] = m>>v&1 == 1
	}
	return out
}

func TestTerminalsAndVars(t *testing.T) {
	m := NewManager(3)
	if m.Eval(Zero, assignOf(5, 3)) || !m.Eval(One, assignOf(5, 3)) {
		t.Fatal("terminal evaluation wrong")
	}
	x := m.Var(1)
	if !m.Eval(x, assignOf(0b010, 3)) || m.Eval(x, assignOf(0b101, 3)) {
		t.Fatal("Var(1) evaluation wrong")
	}
	nx := m.NVar(1)
	if m.Eval(nx, assignOf(0b010, 3)) {
		t.Fatal("NVar(1) evaluation wrong")
	}
}

// TestResetMatchesNewManager: a manager reused through Reset builds every
// function with the same Refs and node count as a fresh NewManager of the
// new variable count, whatever it held before.
func TestResetMatchesNewManager(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	reused := NewManager(0)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(6)
		f, g := randomCover(r, n, 5), randomCover(r, n, 5)
		fresh := NewManager(n)
		reused.Reset(n)
		if reused.NumVars() != n || reused.NumNodes() != fresh.NumNodes() {
			t.Fatalf("trial %d: Reset(%d) leaves %d vars and %d nodes, NewManager %d and %d",
				trial, n, reused.NumVars(), reused.NumNodes(), fresh.NumVars(), fresh.NumNodes())
		}
		want := fresh.And(fresh.FromCover(f), fresh.Not(fresh.FromCover(g)))
		got := reused.And(reused.FromCover(f), reused.Not(reused.FromCover(g)))
		if got != want || reused.NumNodes() != fresh.NumNodes() {
			t.Fatalf("trial %d: reused manager gives ref %d over %d nodes, a fresh one %d over %d",
				trial, got, reused.NumNodes(), want, fresh.NumNodes())
		}
	}
}

func TestCanonicity(t *testing.T) {
	m := NewManager(4)
	// (a ∧ b) ∨ c built two ways must be the same node.
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f1 := m.Or(m.And(a, b), c)
	f2 := m.Or(c, m.And(b, a))
	if f1 != f2 {
		t.Fatal("equal functions got different refs")
	}
	// De Morgan.
	g1 := m.Not(m.And(a, b))
	g2 := m.Or(m.Not(a), m.Not(b))
	if g1 != g2 {
		t.Fatal("De Morgan refs differ")
	}
}

func TestPropFromCoverMatches(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	const n = 6
	prop := func(seed int64) bool {
		r.Seed(seed)
		cov := randomCover(r, n, 6)
		m := NewManager(n)
		f := m.FromCover(cov)
		for a := 0; a < 1<<n; a++ {
			if m.Eval(f, assignOf(a, n)) != cov.Eval(assignOf(a, n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropApplyOps(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	const n = 5
	prop := func(seed int64) bool {
		r.Seed(seed)
		ca, cb := randomCover(r, n, 4), randomCover(r, n, 4)
		m := NewManager(n)
		a, b := m.FromCover(ca), m.FromCover(cb)
		and, or, xor, not := m.And(a, b), m.Or(a, b), m.Xor(a, b), m.Not(a)
		for x := 0; x < 1<<n; x++ {
			as := assignOf(x, n)
			va, vb := ca.Eval(as), cb.Eval(as)
			if m.Eval(and, as) != (va && vb) ||
				m.Eval(or, as) != (va || vb) ||
				m.Eval(xor, as) != (va != vb) ||
				m.Eval(not, as) == va {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestConstrainIdentity(t *testing.T) {
	// c ∧ (f↓c) == c ∧ f for random f, c.
	r := rand.New(rand.NewSource(93))
	const n = 5
	prop := func(seed int64) bool {
		r.Seed(seed)
		cf, cc := randomCover(r, n, 5), randomCover(r, n, 3)
		m := NewManager(n)
		f, c := m.FromCover(cf), m.FromCover(cc)
		if c == Zero {
			return true
		}
		lhs := m.And(c, m.Constrain(f, c))
		rhs := m.And(c, f)
		return lhs == rhs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDivideIdentity(t *testing.T) {
	// f == d·q + r for the BDD division.
	r := rand.New(rand.NewSource(94))
	const n = 6
	prop := func(seed int64) bool {
		r.Seed(seed)
		cf, cd := randomCover(r, n, 5), randomCover(r, n, 3)
		m := NewManager(n)
		f, d := m.FromCover(cf), m.FromCover(cd)
		q, rem := m.Divide(f, d)
		return m.Or(m.And(d, q), rem) == f
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestISOPRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	const n = 6
	prop := func(seed int64) bool {
		r.Seed(seed)
		cov := randomCover(r, n, 6)
		m := NewManager(n)
		f := m.FromCover(cov)
		out, ok := m.ISOP(f, 0)
		if !ok {
			return false
		}
		for a := 0; a < 1<<n; a++ {
			if out.Eval(assignOf(a, n)) != m.Eval(f, assignOf(a, n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestISOPIrredundant(t *testing.T) {
	// Each ISOP cube must be needed: dropping any changes the function.
	m := NewManager(3)
	cov := cube.ParseCover(3, "ab + a'c + bc") // consensus cube bc is redundant
	f := m.FromCover(cov)
	out, ok := m.ISOP(f, 0)
	if !ok {
		t.Fatal("ISOP failed")
	}
	if out.NumCubes() > 2 {
		t.Errorf("ISOP kept a redundant cube: %v", out)
	}
	for i := range out.Cubes {
		rest := cube.NewCover(3)
		for j, c := range out.Cubes {
			if j != i {
				rest.Cubes = append(rest.Cubes, c)
			}
		}
		if m.FromCover(rest) == f {
			t.Errorf("cube %d is redundant in ISOP output", i)
		}
	}
}

func TestXorBDDSize(t *testing.T) {
	// n-variable XOR has 2n-1 internal nodes under any order.
	const n = 8
	m := NewManager(n)
	f := Zero
	for v := 0; v < n; v++ {
		f = m.Xor(f, m.Var(v))
	}
	count := map[Ref]bool{}
	var walk func(Ref)
	walk = func(r Ref) {
		if r == Zero || r == One || count[r] {
			return
		}
		count[r] = true
		walk(m.nodes[r].lo)
		walk(m.nodes[r].hi)
	}
	walk(f)
	if len(count) != 2*n-1 {
		t.Errorf("XOR%d BDD has %d nodes, want %d", n, len(count), 2*n-1)
	}
}

func TestSupport(t *testing.T) {
	m := NewManager(5)
	f := m.Or(m.And(m.Var(0), m.Var(3)), m.NVar(4))
	got := m.Support(f)
	want := []int{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("support = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("support = %v, want %v", got, want)
		}
	}
}

func TestSatCount(t *testing.T) {
	m := NewManager(4)
	// x0 ∧ x1 over 4 vars: 4 models.
	f := m.And(m.Var(0), m.Var(1))
	if c := m.SatCount(f); c != 4 {
		t.Errorf("SatCount(x0∧x1) = %v, want 4", c)
	}
	// XOR of all 4: half the space.
	x := Zero
	for v := 0; v < 4; v++ {
		x = m.Xor(x, m.Var(v))
	}
	if c := m.SatCount(x); c != 8 {
		t.Errorf("SatCount(xor4) = %v, want 8", c)
	}
	if c := m.SatCount(One); c != 16 {
		t.Errorf("SatCount(1) = %v, want 16", c)
	}
	if c := m.SatCount(Zero); c != 0 {
		t.Errorf("SatCount(0) = %v, want 0", c)
	}
}

func TestPropSatCountMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(96))
	const n = 5
	prop := func(seed int64) bool {
		r.Seed(seed)
		cov := randomCover(r, n, 5)
		m := NewManager(n)
		f := m.FromCover(cov)
		want := 0
		for a := 0; a < 1<<n; a++ {
			if cov.Eval(assignOf(a, n)) {
				want++
			}
		}
		return m.SatCount(f) == float64(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestOrderingCuresBlowup(t *testing.T) {
	// f = x0·y0 + x1·y1 + ... with variables laid out all-x-then-all-y:
	// the natural order is exponential, the interleaved order is linear.
	const k = 6
	n := 2 * k
	f := cube.NewCover(n)
	for i := 0; i < k; i++ {
		c := cube.New(n)
		c.Set(i, cube.Pos)   // xi
		c.Set(k+i, cube.Pos) // yi
		f.Add(c)
	}
	mBad := NewManager(n)
	bad := mBad.FromCover(f) // identity order: x0..x5 y0..y5 → blow-up
	mGood := NewManager(n)
	perm := OrderBySupport(f)
	good, level := mGood.FromCoverOrdered(f, perm)

	nb, ng := mBad.CountNodes(bad), mGood.CountNodes(good)
	if ng >= nb {
		t.Errorf("ordered build not smaller: %d vs %d nodes", ng, nb)
	}
	if ng > 3*n {
		t.Errorf("interleaved order should be linear-ish: %d nodes", ng)
	}

	// Function must be preserved under the permutation.
	for trial := 0; trial < 200; trial++ {
		m := trial * 2654435761 % (1 << n)
		orig := assignOf(m, n)
		permuted := make([]bool, n)
		for v := 0; v < n; v++ {
			permuted[level[v]] = orig[v]
		}
		if f.Eval(orig) != mGood.Eval(good, permuted) {
			t.Fatalf("permutation broke the function at %b", m)
		}
	}
}

func TestOrderBySupportIsPermutation(t *testing.T) {
	f := cube.ParseCover(5, "ab + cd + e")
	perm := OrderBySupport(f)
	if len(perm) != 5 {
		t.Fatalf("perm = %v", perm)
	}
	seen := map[int]bool{}
	for _, v := range perm {
		if seen[v] || v < 0 || v >= 5 {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[v] = true
	}
}
