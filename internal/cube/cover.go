package cube

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Cover is a sum-of-products: the OR of its cubes, all over the same
// variable space. The empty cover denotes the constant-0 function.
type Cover struct {
	Cubes []Cube
	n     int
}

// NewCover returns an empty (constant-0) cover over n variables.
func NewCover(n int) Cover { return Cover{n: n} }

// CoverOf builds a cover from cubes; all must share the same space.
func CoverOf(n int, cs ...Cube) Cover {
	cov := Cover{n: n}
	for _, c := range cs {
		cov.Add(c)
	}
	return cov
}

// ParseCover parses "ab + c'd + e" into a cover over n ≤ 26 variables.
// "0" is the empty cover, "1" the universal cover. For tests and examples.
func ParseCover(n int, s string) Cover {
	cov := NewCover(n)
	s = strings.TrimSpace(s)
	if s == "0" || s == "" {
		return cov
	}
	for _, t := range strings.Split(s, "+") {
		cov.Add(Parse(n, strings.TrimSpace(t)))
	}
	return cov
}

// NumVars returns the variable-space size.
func (f Cover) NumVars() int { return f.n }

// Add appends cube c unless it is empty.
func (f *Cover) Add(c Cube) {
	if c.n != f.n {
		panic("cube: cover/cube space mismatch")
	}
	if c.IsEmpty() {
		return
	}
	f.Cubes = append(f.Cubes, c)
}

// Clone deep-copies the cover.
func (f Cover) Clone() Cover {
	g := Cover{n: f.n, Cubes: make([]Cube, len(f.Cubes))}
	for i, c := range f.Cubes {
		g.Cubes[i] = c.Clone()
	}
	return g
}

// IsZero reports whether the cover has no cubes (constant 0).
func (f Cover) IsZero() bool { return len(f.Cubes) == 0 }

// NumCubes returns the number of product terms.
func (f Cover) NumCubes() int { return len(f.Cubes) }

// NumLits returns the total literal count of the SOP form.
func (f Cover) NumLits() int {
	n := 0
	for _, c := range f.Cubes {
		n += c.NumLits()
	}
	return n
}

// Support returns the ascending list of variables appearing in any cube.
func (f Cover) Support() []int {
	seen := make(map[int]bool)
	for _, c := range f.Cubes {
		for _, v := range c.Lits() {
			seen[v] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// HasVar reports whether variable v appears in the cover.
func (f Cover) HasVar(v int) bool {
	for _, c := range f.Cubes {
		if c.ContainsVar(v) {
			return true
		}
	}
	return false
}

// Cofactor returns the cover cofactored against cube p: cubes disjoint from
// p are dropped, the rest have p's variables freed. The surviving cubes
// share one backing word array (the cover is freshly built, so nothing
// aliases it).
func (f Cover) Cofactor(p Cube) Cover {
	g := NewCover(f.n)
	keep := 0
	for _, c := range f.Cubes {
		if !c.Disjoint(p) {
			keep++
		}
	}
	if keep == 0 {
		return g
	}
	nw := len(f.Cubes[0].w)
	backing := make([]uint64, keep*nw)
	g.Cubes = make([]Cube, 0, keep)
	for _, c := range f.Cubes {
		if c.Disjoint(p) {
			continue
		}
		w := backing[:nw:nw]
		backing = backing[nw:]
		c.cofactorInto(w, p)
		g.Cubes = append(g.Cubes, Cube{w: w, n: f.n})
	}
	return g
}

// SCC performs single-cube-containment minimization: deletes duplicate cubes
// and cubes contained in another cube of the cover. The result is returned;
// f is unchanged.
func (f Cover) SCC() Cover {
	g := NewCover(f.n)
	g.Cubes = append([]Cube(nil), f.Cubes...)
	return g.SCCInPlace()
}

// SCCInPlace is SCC on f's own cube list, without allocating: it reorders
// f.Cubes, keeps the surviving cubes in a prefix of it and returns the
// cover over that prefix. The cubes' words are not touched; the order of
// f.Cubes is not kept.
//
//bdslint:hotpath
func (f Cover) SCCInPlace() Cover {
	cs := f.Cubes
	// Sort by decreasing cube size (fewer literals first => bigger cubes
	// first) so one pass suffices: a stable binary insertion sort on
	// literal count, the order sort.SliceStable produced without its
	// reflection machinery, counting each cube's literals O(log n) times.
	for i := 1; i < len(cs); i++ {
		c, lits := cs[i], cs[i].NumLits()
		if cs[i-1].NumLits() <= lits {
			continue
		}
		// c goes before the first cube of the sorted prefix with more
		// literals.
		lo, hi := 0, i-1
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if cs[m].NumLits() > lits {
				hi = m
			} else {
				lo = m + 1
			}
		}
		copy(cs[lo+1:i+1], cs[lo:i])
		cs[lo] = c
	}
	kept := 0
	for _, c := range cs {
		contained := false
		for _, k := range cs[:kept] {
			if k.Contains(c) {
				contained = true
				break
			}
		}
		if !contained {
			cs[kept] = c
			kept++
		}
	}
	return Cover{n: f.n, Cubes: cs[:kept]}
}

// IsTautology reports whether the cover equals the constant-1 function,
// using the unate recursive paradigm.
func (f Cover) IsTautology() bool {
	return tautology(f, New(f.n), nil, 0)
}

const maxTautDepth = 1 << 20 // recursion guard; never hit in practice

// liveStackCubes is the largest cover whose live-cube bitset tautology
// keeps on the stack; larger covers allocate one per recursion node.
const liveStackCubes = 256

// tautology reports whether f cofactored by the restriction cube r is the
// constant-1 function. The cofactor is never materialized: cubes disjoint
// from r are skipped, and variables bound by r read as Free. Branching
// binds a variable of r in place (restored on return). Each recursion node
// tests a cube against r once and records the survivors in a bitset that
// the branching-variable count and the children scan in place of the
// cover; parent is the caller's bitset (nil at the root: every cube). A
// child's restriction only grows, so its survivors are among its parent's.
// For covers of up to liveStackCubes cubes the recursion allocates nothing.
func tautology(f Cover, r Cube, parent []uint64, depth int) bool {
	if depth > maxTautDepth {
		panic("cube: tautology recursion blow-up")
	}
	nw := (len(f.Cubes) + 63) / 64
	var buf [liveStackCubes / 64]uint64
	live := buf[:min(nw, len(buf))]
	if nw > len(buf) {
		live = make([]uint64, nw)
	}
	// Quick exits: no surviving cube means constant 0; a cube whose
	// cofactor is the universal cube means constant 1.
	any := false
	for k := range live {
		m := ^uint64(0)
		if parent != nil {
			m = parent[k]
		} else if rest := len(f.Cubes) - 64*k; rest < 64 {
			m = 1<<uint(rest) - 1
		}
		for b := m; b != 0; b &= b - 1 {
			j := bits.TrailingZeros64(b)
			c := f.Cubes[64*k+j]
			if c.Disjoint(r) {
				m &^= 1 << uint(j)
				continue
			}
			universe := true
			for i := range c.w {
				full := fullMask(c.n, i)
				if (c.w[i]|^r.w[i])&full != full {
					universe = false
					break
				}
			}
			if universe {
				return true
			}
		}
		live[k] = m
		any = any || m != 0
	}
	if !any {
		return false
	}
	// Unate reduction: a unate cover is a tautology iff it contains the
	// universal cube, and none was found above, so a unate residue is a no.
	v, binate := mostBinateVarUnder(f, r, live)
	if !binate {
		return false
	}
	r.Set(v, Pos)
	if !tautology(f, r, live, depth+1) {
		r.Set(v, Free)
		return false
	}
	r.Set(v, Neg)
	ok := tautology(f, r, live, depth+1)
	r.Set(v, Free)
	return ok
}

// mostBinateVarUnder picks, on the (virtual) cofactor of f by restriction
// r, the variable appearing in both phases in the most cubes, lowest index
// on ties; binate is false when the cofactor is unate. Only the cubes in
// the live bitset count, and variables bound by r never count (they read
// as Free in the cofactor). Each live cube's literal bits are read once,
// one word at a time.
//
//bdslint:hotpath
func mostBinateVarUnder(f Cover, r Cube, live []uint64) (v int, binate bool) {
	var t litTally
	best, bestCount := -1, -1
	for i, rw := range r.w {
		free := rw & (rw >> 1) & loBits // slots r leaves Free
		if free == 0 {
			continue
		}
		t.reset()
		for k, m := range live {
			for ; m != 0; m &= m - 1 {
				t.add(f.Cubes[64*k+bits.TrailingZeros64(m)].w[i], free)
			}
		}
		t.fold(t.anyPos&t.anyNeg, i, &best, &bestCount) // binate variables
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// loBits is the low bit of every two-bit variable slot of a word.
const loBits = 0x5555555555555555

// litTally counts, for the variables of one cube word, the cubes holding
// each phase of each variable: the input of the branching-variable choice
// of both the tautology and the complement recursions. Filling it reads
// each cube's literal bits once, where a variable-by-variable scan reads
// every cube once per variable.
type litTally struct {
	pos, neg       [varsPerWord]int32
	anyPos, anyNeg uint64 // low bit of each slot some counted cube holds Pos / Neg
}

func (t *litTally) reset() { *t = litTally{} }

// add counts the literals of cube word w in the slots whose low bit is set
// in keep.
//
//bdslint:hotpath
func (t *litTally) add(w, keep uint64) {
	lo, hi := w&loBits, w>>1&loBits
	p, n := hi&^lo&keep, lo&^hi&keep
	t.anyPos |= p
	t.anyNeg |= n
	for ; p != 0; p &= p - 1 {
		t.pos[bits.TrailingZeros64(p)/2]++
	}
	for ; n != 0; n &= n - 1 {
		t.neg[bits.TrailingZeros64(n)/2]++
	}
}

// fold folds the variables of word i whose slots are set in vars into a
// running pick of the variable in the most cubes. Words are folded in
// ascending order and a later variable must beat the count strictly, so
// the lowest index wins ties.
//
//bdslint:hotpath
func (t *litTally) fold(vars uint64, i int, best, bestCount *int) {
	for ; vars != 0; vars &= vars - 1 {
		k := bits.TrailingZeros64(vars) / 2
		if c := int(t.pos[k] + t.neg[k]); c > *bestCount {
			*best, *bestCount = i*varsPerWord+k, c
		}
	}
}

// ContainsCube reports whether cube c is contained in the cover (every
// minterm of c is covered): equivalent to the cofactor of f by c being a
// tautology. The cofactor is evaluated virtually — c seeds the tautology
// recursion's restriction cube (cloned: the recursion scribbles on it).
func (f Cover) ContainsCube(c Cube) bool {
	if c.IsEmpty() {
		return true
	}
	return tautology(f, c.Clone(), nil, 0)
}

// ContainsCubeUsing is ContainsCube with a caller-provided scratch cube of
// the same variable space: the scratch receives c's contents and serves as
// the recursion's restriction, so tight loops avoid the per-call clone. The
// scratch's previous contents are destroyed.
func (f Cover) ContainsCubeUsing(c, scratch Cube) bool {
	if c.IsEmpty() {
		return true
	}
	copy(scratch.w, c.w)
	return tautology(f, scratch, nil, 0)
}

// ContainsCover reports whether g ⊆ f as functions.
func (f Cover) ContainsCover(g Cover) bool {
	for _, c := range g.Cubes {
		if !f.ContainsCube(c) {
			return false
		}
	}
	return true
}

// Equivalent reports functional equality of two covers.
func (f Cover) Equivalent(g Cover) bool {
	return f.ContainsCover(g) && g.ContainsCover(f)
}

// Complement returns a cover of the complement function, computed by the
// recursive Shannon expansion with unate shortcuts. The cover is free of
// single-cube containment, and its cubes come stably sorted by ascending
// literal count — the order SCC leaves a cover in (see complementer).
func (f Cover) Complement() Cover {
	g, _ := f.ComplementAtMost(math.MaxInt)
	return g
}

// ComplementAtMost returns the cover Complement builds when it has at most
// max cubes, and false otherwise. It stops the recursion as soon as the
// output passes max cubes, so rejecting a large complement costs about max
// cubes rather than the whole complement. The recursion runs on pooled
// buffers and only the returned cubes are copied out, in one header slice
// and one word block: a rejected complement allocates nothing. f is never
// written, and the result shares no words with f or with the pool.
func (f Cover) ComplementAtMost(max int) (Cover, bool) {
	if max < 0 {
		return Cover{}, false
	}
	cx := complementers.Get().(*complementer)
	var g Cover
	ok := cx.complement(f, max)
	if ok {
		g = Cover{n: f.n, Cubes: cx.sorted()}
	}
	complementers.Put(cx)
	return g, ok
}

// complementers recycles the recursion's buffers across calls. Each call
// takes a complementer of its own, so concurrent callers never share one.
var complementers = sync.Pool{New: func() any { return new(complementer) }}

// complementer is one run of the complement recursion. Its output needs no
// containment pass: by induction on the recursion, no output cube contains
// another. A leaf emits nothing, the universal cube, or single-literal
// cubes on distinct variables. A merge binds the split variable v
// positively on the complement of f_v and negatively on the complement of
// f_v', and neither cofactor mentions v: cubes from the same side compare
// as their sub-results did, and cubes from opposite sides are disjoint.
//
// Every emitted cube is a fresh window of words, so a merge binds v in
// place. The recursion never drops an emitted cube, so the output count is
// exact at every step and the budget can stop the run early. Cofactors
// live on a stack that each level pops when its child returns. Every
// buffer survives the run in the pool, so a warmed recursion allocates
// nothing; the input's cubes are only read, and cofactors are copies.
type complementer struct {
	n, nw  int
	univ   Cube     // universal cube: the template of every emitted cube
	words  []uint64 // emitted cubes in leaf order, nw words each
	count  int      // cubes emitted
	left   int      // cubes the budget still allows
	stack  []Cube   // cofactor cubes of the levels on the recursion path
	stackW []uint64 // their words
	out    []Cube   // sorted's output order, before the copy-out
	next   []int    // sorted's bucket offsets
}

// complement runs the complement recursion over f with a budget of max ≥ 0
// cubes, leaving the output in cx; false means the budget stopped it.
// Empty cubes are dropped first: they denote no minterms, and the
// single-cube leaf would read one as the constant 0.
//
//bdslint:hotpath
func (cx *complementer) complement(f Cover, max int) bool {
	cx.reset(f.n, max)
	for _, c := range f.Cubes {
		if c.IsEmpty() {
			f = cx.nonEmpty(f)
			break
		}
	}
	return cx.run(f)
}

// reset readies cx for a run over n variables with a budget of max cubes.
//
//bdslint:hotpath
func (cx *complementer) reset(n, max int) {
	cx.n, cx.nw = n, (n+varsPerWord-1)/varsPerWord
	w := cx.univ.w[:0]
	for i := 0; i < cx.nw; i++ {
		w = append(w, fullMask(n, i))
	}
	cx.univ = Cube{w: w, n: n}
	cx.words, cx.count, cx.left = cx.words[:0], 0, max
	cx.stack, cx.stackW = cx.stack[:0], cx.stackW[:0]
}

// nonEmpty pushes the headers of f's non-empty cubes onto the stack, in
// order, as the recursion's root cover.
//
//bdslint:hotpath
func (cx *complementer) nonEmpty(f Cover) Cover {
	for _, c := range f.Cubes {
		if !c.IsEmpty() {
			cx.stack = append(cx.stack, c)
		}
	}
	return Cover{n: cx.n, Cubes: cx.stack[:len(cx.stack):len(cx.stack)]}
}

// run appends the complement of f to the output, or returns false once the
// output would pass the budget. The split variable and the leaves are
// those of the textbook unate-recursive complement: the most binate
// variable, else the most frequent one (lowest index on ties).
//
//bdslint:hotpath
func (cx *complementer) run(f Cover) bool {
	if len(f.Cubes) == 0 {
		return cx.emit()
	}
	for _, c := range f.Cubes {
		if c.IsUniverse() {
			return true
		}
	}
	if len(f.Cubes) == 1 {
		// De Morgan: one cube per literal, in the opposite phase.
		c := f.Cubes[0]
		for v := 0; v < cx.n; v++ {
			p := c.Get(v)
			if p != Pos && p != Neg {
				continue
			}
			if !cx.emit() {
				return false
			}
			cx.bind(cx.count-1, cx.count, v, p^Free)
		}
		return true
	}
	v := splitVar(f)
	start, top, wtop := cx.count, len(cx.stack), len(cx.stackW)
	if !cx.run(cx.cofactor(f, v, Pos)) {
		return false
	}
	cx.stack, cx.stackW = cx.stack[:top], cx.stackW[:wtop]
	mid := cx.count
	if !cx.run(cx.cofactor(f, v, Neg)) {
		return false
	}
	cx.stack, cx.stackW = cx.stack[:top], cx.stackW[:wtop]
	cx.bind(start, mid, v, Pos)
	cx.bind(mid, cx.count, v, Neg)
	return true
}

// cofactor pushes the cofactor of f by the literal v = p onto the stack
// and returns it: Cover.Cofactor's cubes, in its order. No cube of the
// recursion is empty, so a cube is disjoint from the literal exactly when
// it holds the opposite one.
//
//bdslint:hotpath
func (cx *complementer) cofactor(f Cover, v int, p Phase) Cover {
	i, s := v/varsPerWord, 2*uint(v%varsPerWord)
	start := len(cx.stack)
	for _, c := range f.Cubes {
		if Phase(c.w[i]>>s&0b11) == p^Free {
			continue
		}
		k := len(cx.stackW)
		cx.stackW = append(cx.stackW, c.w...)
		w := cx.stackW[k : k+cx.nw : k+cx.nw]
		w[i] |= 0b11 << s
		cx.stack = append(cx.stack, Cube{w: w, n: cx.n})
	}
	return Cover{n: cx.n, Cubes: cx.stack[start:len(cx.stack):len(cx.stack)]}
}

// emit appends a universal cube to the output, or returns false when the
// budget is spent.
//
//bdslint:hotpath
func (cx *complementer) emit() bool {
	if cx.left == 0 {
		return false
	}
	cx.left--
	cx.count++
	cx.words = append(cx.words, cx.univ.w...)
	return true
}

// bind sets variable v to phase p in output cubes [from, to).
//
//bdslint:hotpath
func (cx *complementer) bind(from, to, v int, p Phase) {
	i, s := v/varsPerWord, 2*uint(v%varsPerWord)
	for k := from; k < to; k++ {
		w := &cx.words[k*cx.nw+i]
		*w = *w&^(0b11<<s) | uint64(p)<<s
	}
}

// cube returns output cube k, a capacity-limited window of the words.
func (cx *complementer) cube(k int) Cube {
	return Cube{w: cx.words[k*cx.nw : (k+1)*cx.nw : (k+1)*cx.nw], n: cx.n}
}

// sorted returns a copy of the output stably sorted by ascending literal
// count: a bucket sort, in pooled buffers, reproducing the order SCC's
// stable sort gives the same cubes. Only the copy-out allocates.
func (cx *complementer) sorted() []Cube {
	if cx.count == 0 {
		return nil
	}
	cx.out = slices.Grow(cx.out[:0], cx.count)[:cx.count]
	// Count the cubes of each literal count l in next[l+1]; the prefix sums
	// then make next[l] the slot of the next cube with l literals.
	next := slices.Grow(cx.next[:0], cx.n+2)[:cx.n+2]
	clear(next)
	cx.next = next
	for k := 0; k < cx.count; k++ {
		next[cx.cube(k).NumLits()+1]++
	}
	for l := 1; l < len(next); l++ {
		next[l] += next[l-1]
	}
	for k := 0; k < cx.count; k++ {
		c := cx.cube(k)
		l := c.NumLits()
		cx.out[next[l]] = c
		next[l]++
	}
	return CloneCubes(cx.out)
}

// splitVar picks the complement recursion's split variable: the variable
// in both phases in the most cubes, or for a unate cover the one in the
// most cubes (lowest index on ties, both times), to keep the recursion
// shallow and deterministic. The recursion reaches it only with two or
// more cubes, none universal or empty, so some variable appears.
//
//bdslint:hotpath
func splitVar(f Cover) int {
	var t litTally
	binate, binCount := -1, -1
	freq, freqCount := 0, -1
	for i := 0; i < (f.n+varsPerWord-1)/varsPerWord; i++ {
		t.reset()
		for _, c := range f.Cubes {
			t.add(c.w[i], loBits)
		}
		t.fold(t.anyPos&t.anyNeg, i, &binate, &binCount)
		t.fold(t.anyPos|t.anyNeg, i, &freq, &freqCount)
	}
	if binate >= 0 {
		return binate
	}
	return freq
}

// And returns the product of two covers (cube-pairwise intersection, SCC'd).
func (f Cover) And(g Cover) Cover {
	out := NewCover(f.n)
	for _, a := range f.Cubes {
		for _, b := range g.Cubes {
			p := a.And(b)
			if !p.IsEmpty() {
				out.Cubes = append(out.Cubes, p)
			}
		}
	}
	return out.SCC()
}

// Or returns the sum of two covers, SCC'd.
func (f Cover) Or(g Cover) Cover {
	out := NewCover(f.n)
	out.Cubes = append(out.Cubes, f.Cubes...)
	out.Cubes = append(out.Cubes, g.Cubes...)
	return out.SCC()
}

// Dedup removes exact-duplicate cubes (cheaper than SCC).
func (f Cover) Dedup() Cover {
	seen := make(map[string]bool, len(f.Cubes))
	g := NewCover(f.n)
	for _, c := range f.Cubes {
		k := c.key()
		if !seen[k] {
			seen[k] = true
			g.Cubes = append(g.Cubes, c)
		}
	}
	return g
}

// Eval evaluates the cover on a complete assignment given as a bit-slice
// (true = 1) indexed by variable.
func (f Cover) Eval(assign []bool) bool {
	for _, c := range f.Cubes {
		ok := true
		for _, v := range c.Lits() {
			if (c.Get(v) == Pos) != assign[v] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// String renders the cover as "ab + c'".
func (f Cover) String() string {
	if len(f.Cubes) == 0 {
		return "0"
	}
	parts := make([]string, len(f.Cubes))
	for i, c := range f.Cubes {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " + ")
}
