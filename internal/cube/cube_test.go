package cube

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewUniverse(t *testing.T) {
	for _, n := range []int{0, 1, 5, 31, 32, 33, 64, 65, 100} {
		c := New(n)
		if !c.IsUniverse() {
			t.Errorf("New(%d) not universe", n)
		}
		if c.IsEmpty() {
			t.Errorf("New(%d) reported empty", n)
		}
		if c.NumLits() != 0 {
			t.Errorf("New(%d) has %d lits", n, c.NumLits())
		}
	}
}

func TestSetGet(t *testing.T) {
	c := New(70)
	c.Set(0, Pos)
	c.Set(33, Neg)
	c.Set(69, Pos)
	if c.Get(0) != Pos || c.Get(33) != Neg || c.Get(69) != Pos {
		t.Fatalf("get/set mismatch: %v %v %v", c.Get(0), c.Get(33), c.Get(69))
	}
	if c.Get(1) != Free {
		t.Fatalf("unset var not free")
	}
	if c.NumLits() != 3 {
		t.Fatalf("NumLits = %d, want 3", c.NumLits())
	}
	got := c.Lits()
	want := []int{0, 33, 69}
	if len(got) != len(want) {
		t.Fatalf("Lits = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Lits = %v, want %v", got, want)
		}
	}
}

func TestEmptyDetection(t *testing.T) {
	c := New(40)
	if c.IsEmpty() {
		t.Fatal("universe empty")
	}
	c.Set(35, Empty)
	if !c.IsEmpty() {
		t.Fatal("cube with empty slot not reported empty")
	}
}

func TestParseString(t *testing.T) {
	cases := []struct{ in, out string }{
		{"ab'c", "ab'c"},
		{"a", "a"},
		{"1", "1"},
		{"0", "0"},
		{"a'b'", "a'b'"},
	}
	for _, tc := range cases {
		c := Parse(4, tc.in)
		if c.String() != tc.out {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, c.String(), tc.out)
		}
	}
}

func TestContains(t *testing.T) {
	// p contains q iff lits(p) ⊆ lits(q) with matching phases.
	ab := Parse(4, "ab")
	abc := Parse(4, "abc")
	abn := Parse(4, "ab'")
	if !ab.Contains(abc) {
		t.Error("ab should contain abc")
	}
	if abc.Contains(ab) {
		t.Error("abc should not contain ab")
	}
	if ab.Contains(abn) || abn.Contains(ab) {
		t.Error("ab and ab' should be incomparable")
	}
	if !New(4).Contains(abc) {
		t.Error("universe contains everything")
	}
	e := New(4)
	e.Set(0, Empty)
	if !ab.Contains(e) {
		t.Error("anything contains the empty cube")
	}
}

func TestAndDistance(t *testing.T) {
	ab := Parse(4, "ab")
	bc := Parse(4, "bc")
	x := ab.And(bc)
	if x.String() != "abc" {
		t.Errorf("ab∧bc = %v", x)
	}
	an := Parse(4, "a'")
	if d := ab.Distance(an); d != 1 {
		t.Errorf("distance(ab,a') = %d, want 1", d)
	}
	abn := Parse(4, "a'b'")
	if d := ab.Distance(abn); d != 2 {
		t.Errorf("distance(ab,a'b') = %d, want 2", d)
	}
	if !ab.And(an).IsEmpty() {
		t.Error("ab∧a' should be empty")
	}
}

func TestCofactorCube(t *testing.T) {
	abc := Parse(4, "abc")
	a := Parse(4, "a")
	cc, ok := abc.Cofactor(a)
	if !ok || cc.String() != "bc" {
		t.Errorf("abc cofactor a = %v ok=%v", cc, ok)
	}
	an := Parse(4, "a'")
	if _, ok := abc.Cofactor(an); ok {
		t.Error("abc cofactor a' should vanish")
	}
}

func TestSupercube(t *testing.T) {
	s := Parse(4, "ab").Supercube(Parse(4, "ab'c"))
	if s.String() != "a" {
		t.Errorf("supercube(ab,ab'c) = %v, want a", s)
	}
}

func TestTautology(t *testing.T) {
	cases := []struct {
		n    int
		s    string
		want bool
	}{
		{2, "a + a'", true},
		{2, "a + b", false},
		{2, "ab + ab' + a'b + a'b'", true},
		{2, "ab + ab' + a'b", false},
		{3, "a + a'b + a'b'", true},
		{3, "a + b + c + a'b'c'", true},
		{3, "a + b + c", false},
		{1, "1", true},
		{1, "0", false},
		{4, "ab + a' + b'", true},
	}
	for _, tc := range cases {
		f := ParseCover(tc.n, tc.s)
		if got := f.IsTautology(); got != tc.want {
			t.Errorf("taut(%q) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestContainsCube(t *testing.T) {
	f := ParseCover(3, "ab + a'c")
	if !f.ContainsCube(Parse(3, "abc")) {
		t.Error("f should contain abc")
	}
	if !f.ContainsCube(Parse(3, "ab")) {
		t.Error("f should contain ab")
	}
	// bc = abc + a'bc; abc ⊆ ab, a'bc ⊆ a'c, so bc is covered though no
	// single cube contains it — the multi-cube containment case.
	if !f.ContainsCube(Parse(3, "bc")) {
		t.Error("f should contain bc (split across cubes)")
	}
	if f.ContainsCube(Parse(3, "c")) {
		t.Error("f should not contain c")
	}
}

func TestComplementSmall(t *testing.T) {
	cases := []struct {
		n int
		s string
	}{
		{2, "a"},
		{2, "ab"},
		{2, "a + b"},
		{3, "ab + a'c"},
		{3, "ab + bc + ac"},
		{3, "0"},
		{3, "1"},
		{4, "ab'c + a'bd + cd'"},
	}
	for _, tc := range cases {
		f := ParseCover(tc.n, tc.s)
		g := f.Complement()
		// Check on all assignments.
		for m := 0; m < 1<<tc.n; m++ {
			assign := make([]bool, tc.n)
			for v := 0; v < tc.n; v++ {
				assign[v] = m>>v&1 == 1
			}
			if f.Eval(assign) == g.Eval(assign) {
				t.Errorf("complement(%q) wrong at minterm %b", tc.s, m)
				break
			}
		}
	}
}

func TestSCC(t *testing.T) {
	f := ParseCover(3, "ab + abc + ab + a'c")
	g := f.SCC()
	if g.NumCubes() != 2 {
		t.Errorf("SCC left %d cubes: %v", g.NumCubes(), g)
	}
	if !f.Equivalent(g) {
		t.Error("SCC changed the function")
	}
}

// sccReference is single-cube containment as SCC first defined it: a
// stable sort on literal count, then a pass that keeps each cube no kept
// cube contains.
func sccReference(f Cover) Cover {
	cs := append([]Cube(nil), f.Cubes...)
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].NumLits() < cs[j].NumLits() })
	g := NewCover(f.n)
	for _, c := range cs {
		contained := false
		for _, k := range g.Cubes {
			contained = contained || k.Contains(c)
		}
		if !contained {
			g.Cubes = append(g.Cubes, c)
		}
	}
	return g
}

// TestSCCMatchesStableSortReference checks SCC and SCCInPlace against
// sccReference on random covers with duplicate and contained cubes: the
// same cubes in the same order, SCC's input left as it was, and
// SCCInPlace allocation-free.
func TestSCCMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	same := func(a, b Cover) bool {
		if a.NumVars() != b.NumVars() || len(a.Cubes) != len(b.Cubes) {
			return false
		}
		for k := range a.Cubes {
			if !a.Cubes[k].Equal(b.Cubes[k]) {
				return false
			}
		}
		return true
	}
	for i := 0; i < 2000; i++ {
		n := []int{4, 40}[i%2]
		maxCubes := 9
		if i%3 == 0 {
			maxCubes = 40
		}
		f := NewCover(n)
		for k := rng.Intn(maxCubes); k > 0; k-- {
			c := randomCube(rng, n)
			f.Cubes = append(f.Cubes, c)
			if rng.Intn(3) == 0 {
				f.Cubes = append(f.Cubes, c.With(rng.Intn(n), Free))
			}
		}
		in := f.Clone()
		want := sccReference(f)
		if got := f.SCC(); !same(got, want) || !same(f, in) {
			t.Fatalf("SCC(%v) = %v, want %v (input now %v)", in, got, want, f)
		}
		if got := f.SCCInPlace(); !same(got, want) {
			t.Fatalf("SCCInPlace(%v) = %v, want %v", in, got, want)
		}
	}
	f := NewCover(6)
	for k := 5; k >= 0; k-- {
		f.Cubes = append(f.Cubes, New(6).With(k, Pos))
	}
	if allocs := testing.AllocsPerRun(50, func() { f.SCCInPlace() }); allocs != 0 {
		t.Errorf("SCCInPlace allocated %.0f times", allocs)
	}
}

func TestAndOrCovers(t *testing.T) {
	f := ParseCover(3, "a + b")
	g := ParseCover(3, "a + c")
	p := f.And(g)
	want := ParseCover(3, "a + bc")
	if !p.Equivalent(want) {
		t.Errorf("(a+b)(a+c) = %v, want a+bc", p)
	}
	s := f.Or(g)
	if !s.Equivalent(ParseCover(3, "a + b + c")) {
		t.Errorf("(a+b)+(a+c) = %v", s)
	}
}

// randomCover builds a random cover for property tests.
func randomCover(r *rand.Rand, n, maxCubes int) Cover {
	f := NewCover(n)
	k := r.Intn(maxCubes + 1)
	for i := 0; i < k; i++ {
		c := New(n)
		for v := 0; v < n; v++ {
			switch r.Intn(3) {
			case 0:
				c.Set(v, Pos)
			case 1:
				c.Set(v, Neg)
			}
		}
		f.Add(c)
	}
	return f
}

func evalAll(f Cover, n int) uint64 {
	var tt uint64
	for m := 0; m < 1<<n; m++ {
		assign := make([]bool, n)
		for v := 0; v < n; v++ {
			assign[v] = m>>v&1 == 1
		}
		if f.Eval(assign) {
			tt |= 1 << m
		}
	}
	return tt
}

func TestPropComplement(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n = 5
	full := uint64(1)<<(1<<n) - 1
	f := func(seed int64) bool {
		r.Seed(seed)
		cov := randomCover(r, n, 6)
		return evalAll(cov, n)^evalAll(cov.Complement(), n) == full
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropTautologyMatchesTruthTable(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const n = 5
	full := uint64(1)<<(1<<n) - 1
	f := func(seed int64) bool {
		r.Seed(seed)
		cov := randomCover(r, n, 8)
		return cov.IsTautology() == (evalAll(cov, n) == full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropContainment(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 5
	f := func(seed int64) bool {
		r.Seed(seed)
		a := randomCover(r, n, 5)
		b := randomCover(r, n, 5)
		want := evalAll(a, n)|evalAll(b, n) == evalAll(a, n)
		return a.ContainsCover(b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropAndOr(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const n = 5
	f := func(seed int64) bool {
		r.Seed(seed)
		a := randomCover(r, n, 4)
		b := randomCover(r, n, 4)
		ta, tb := evalAll(a, n), evalAll(b, n)
		return evalAll(a.And(b), n) == ta&tb && evalAll(a.Or(b), n) == ta|tb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropCofactorShannon(t *testing.T) {
	// f = x·f_x + x'·f_x' on truth tables.
	r := rand.New(rand.NewSource(5))
	const n = 5
	f := func(seed int64) bool {
		r.Seed(seed)
		cov := randomCover(r, n, 5)
		v := r.Intn(n)
		pos := New(n)
		pos.Set(v, Pos)
		neg := New(n)
		neg.Set(v, Neg)
		fx := cov.Cofactor(pos)
		fxn := cov.Cofactor(neg)
		lx := CoverOf(n, pos)
		lxn := CoverOf(n, neg)
		recon := lx.And(fx).Or(lxn.And(fxn))
		return evalAll(recon, n) == evalAll(cov, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoverStringDeterministic(t *testing.T) {
	f := ParseCover(3, "c + ab")
	g := ParseCover(3, "ab + c")
	if f.String() != g.String() {
		t.Errorf("non-canonical rendering: %q vs %q", f.String(), g.String())
	}
}

func TestDedup(t *testing.T) {
	f := ParseCover(3, "ab + ab + c")
	if d := f.Dedup(); d.NumCubes() != 2 {
		t.Errorf("Dedup left %d cubes", d.NumCubes())
	}
}
