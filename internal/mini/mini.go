// Package mini is a self-contained Espresso-style two-level minimizer. It
// implements the classic EXPAND / IRREDUNDANT / REDUCE loop on positional
// cube covers, optionally with a don't-care set, and is the engine behind
// the SIS-like `simplify` command used to prepare circuits for
// resubstitution experiments.
//
// It is heuristic (like Espresso): the result is a prime and irredundant
// cover of the same function, not necessarily a minimum one.
package mini

import (
	"slices"
	"sync"

	"repro/internal/cube"
)

// Options configure a minimization run.
type Options struct {
	// DC is the don't-care cover; may be the zero Cover for none.
	DC cube.Cover
	// MaxPasses bounds the expand/irredundant/reduce loop; 0 means default.
	MaxPasses int
	// SingleExpand stops after one expand+irredundant pass (faster, used by
	// the inner loops of iterative algorithms).
	SingleExpand bool
}

// Minimize returns a prime, irredundant cover of f (w.r.t. f ∪ DC). The
// loop runs in pooled scratch and copies only the winning cover out, in
// one header slice and one word block, so a warmed call allocates twice.
// Neither f nor DC is ever written, and the result shares no words with
// them: callers may cache the input and the result side by side, and
// concurrent callers may share inputs.
func Minimize(f cube.Cover, opt Options) cube.Cover {
	if f.IsZero() {
		return f.Clone()
	}
	var dc []cube.Cube // a DC without a variable space stands for none
	if opt.DC.NumVars() != 0 || f.NumVars() == 0 {
		dc = opt.DC.Cubes
	}
	passes := opt.MaxPasses
	if passes == 0 {
		passes = 4
	}
	m := getArena(f)
	g := m.copyOut(m.minimize(m.push(f.Cubes), dc, passes, opt.SingleExpand))
	putArena(m)
	return g
}

// Expand enlarges each cube to a prime of f ∪ DC by removing literals one at
// a time while the enlarged cube stays contained in the function, then drops
// cubes covered by previously expanded ones. The result is a copy.
func Expand(f, dc cube.Cover) cube.Cover {
	m := getArena(f)
	g := m.copyOut(m.expand(m.push(f.Cubes), dc.Cubes))
	putArena(m)
	return g
}

// Irredundant removes cubes that are covered by the union of the remaining
// cubes and the don't-care set, processing largest cubes last so the
// relatively-essential ones survive. The result is a copy.
func Irredundant(f, dc cube.Cover) cube.Cover {
	m := getArena(f)
	g := m.copyOut(m.irredundant(m.push(f.Cubes), dc.Cubes))
	putArena(m)
	return g
}

// Reduce shrinks each cube, largest first, to the smallest cube that still
// covers the minterms only it covers: its part outside the rest of the
// cover (earlier cubes in their reduced form) and the don't-care set. The
// next Expand can then grow the cube in a new direction and escape a local
// minimum. A cube the rest covers entirely is kept as it is: Irredundant
// owns removal decisions. The result is a copy.
func Reduce(f, dc cube.Cover) cube.Cover {
	m := getArena(f)
	g := m.copyOut(m.reduce(m.push(f.Cubes), dc.Cubes))
	putArena(m)
	return g
}

// cost orders covers by cube count then literal count (the SIS objective).
func cost(f cube.Cover) int { return f.NumCubes()*1024 + f.NumLits() }

// The scratch side of the minimizer. A cover is a span of cube headers on
// one stack; the words of every cube a step derives (an expanded prime, a
// reduced cube) come from a cube.Arena, and the steps only ever push, so
// every span stays valid until the call returns. Each step emits exactly
// the cube sequence its Cover-level form emitted (see minimize_ref_test.go
// and DESIGN.md, "Two-level kernel: the minimizer on a cube arena"): the
// order feeds the next step's choices. Input cubes are read, never
// written, since the arena copies before it modifies; the result is copied
// out, so no arena cube escapes.

// minArena is one call's scratch. arenas hands every call an arena of its
// own and takes it back on return, so concurrent callers never share one.
type minArena struct {
	n       int
	words   cube.Arena
	stk     []cube.Cube    // cube headers; a cover is a span of them
	against []cube.Cube    // the cover a step's containment checks run against
	canon   [2][]cube.Cube // equal's sorted copies
	lits    []int          // scc's per-cube literal counts
	scratch cube.Cube      // ContainsCubeUsing's restriction cube
}

var arenas = sync.Pool{New: func() any { return new(minArena) }}

// getArena takes a pooled arena, begun for covers over f's variables.
func getArena(f cube.Cover) *minArena {
	m := arenas.Get().(*minArena)
	m.begin(f)
	return m
}

// putArena ends m and hands it back to the pool.
func putArena(m *minArena) {
	m.end()
	arenas.Put(m)
}

// begin readies m for covers over f's variables. The containment checks'
// restriction cube starts as a copy of f's first cube; an empty f needs
// none, since no step runs a check on it.
func (m *minArena) begin(f cube.Cover) {
	m.n = f.NumVars()
	if len(f.Cubes) > 0 {
		m.scratch = m.words.Clone(f.Cubes[0])
	}
}

// end drops every cube and span m holds, keeping their buffers.
func (m *minArena) end() {
	m.words.Release(0)
	m.stk = m.stk[:0]
	m.scratch = cube.Cube{}
}

// span is the cover stk[lo:hi].
type span struct{ lo, hi int }

func (s span) len() int { return s.hi - s.lo }

// cubes returns span s's headers. The slice is valid until the next push.
func (m *minArena) cubes(s span) []cube.Cube { return m.stk[s.lo:s.hi] }

// cover views cs as a Cover over the arena's variables, for the
// containment checks.
func (m *minArena) cover(cs []cube.Cube) cube.Cover {
	c := cube.NewCover(m.n)
	c.Cubes = cs
	return c
}

// copyOut copies span s out of the arena as a fresh cover.
func (m *minArena) copyOut(s span) cube.Cover { return m.cover(cube.CloneCubes(m.cubes(s))) }

// push copies cube headers onto the stack as a new span.
//
//bdslint:hotpath
func (m *minArena) push(cs []cube.Cube) span {
	lo := len(m.stk)
	m.stk = append(m.stk, cs...)
	return span{lo, len(m.stk)}
}

// minimize is Minimize's loop on span f: the same steps, the same cost
// comparison and the same stop rules, so the same winning cover.
//
//bdslint:hotpath
func (m *minArena) minimize(f span, dc []cube.Cube, passes int, single bool) span {
	cur := m.scc(f)
	best, bestCost := cur, m.cost(cur)
	for p := 0; p < passes; p++ {
		cur = m.expand(cur, dc)
		cur = m.irredundant(cur, dc)
		if c := m.cost(cur); c < bestCost {
			best, bestCost = cur, c
		}
		if single {
			break
		}
		reduced := m.reduce(cur, dc)
		if m.equal(reduced, cur) {
			break
		}
		cur = reduced
	}
	return best
}

// cost is the cost of span s.
func (m *minArena) cost(s span) int { return cost(m.cover(m.cubes(s))) }

// scc is Cover.SCC of f: the same stable sort by literal count and the
// same single containment pass, so the same cubes in the same order.
//
//bdslint:hotpath
func (m *minArena) scc(f span) span {
	if f.len() <= 1 {
		return f
	}
	s := m.push(m.cubes(f))
	cs := m.cubes(s)
	lits := m.lits[:0]
	for _, c := range cs {
		lits = append(lits, c.NumLits())
	}
	m.lits = lits
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && lits[j] < lits[j-1]; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
			lits[j], lits[j-1] = lits[j-1], lits[j]
		}
	}
	kept := 0
	for _, c := range cs {
		if !containedIn(cs[:kept], c) {
			cs[kept] = c
			kept++
		}
	}
	m.stk = m.stk[:s.lo+kept]
	return span{s.lo, s.lo + kept}
}

// containedIn reports whether some cube of cs contains c.
//
//bdslint:hotpath
func containedIn(cs []cube.Cube, c cube.Cube) bool {
	for _, k := range cs {
		if k.Contains(c) {
			return true
		}
	}
	return false
}

// expand is Expand on span f: cubes in sortByLits order, each skipped when
// an earlier prime covers it and otherwise expanded against f ∪ dc, then
// SCC.
//
//bdslint:hotpath
func (m *minArena) expand(f span, dc []cube.Cube) span {
	m.against = append(append(m.against[:0], m.cubes(f)...), dc...)
	fd := m.cover(m.against)
	// Expand biggest cubes first so they absorb the most.
	cs := m.push(m.cubes(f))
	sortByLits(m.cubes(cs))
	out := span{len(m.stk), len(m.stk)}
	for k := cs.lo; k < cs.hi; k++ {
		c := m.stk[k]
		if containedIn(m.cubes(out), c) {
			continue // already covered by an expanded prime
		}
		m.stk = append(m.stk, m.expandCube(c, fd))
		out.hi++
	}
	return m.scc(out)
}

// expandCube removes literals from an arena copy of c while containment
// in fd holds. The candidate is mutated in place and the literal restored
// on failure — equivalent to testing a fresh copy per literal, without the
// copies.
//
//bdslint:hotpath
func (m *minArena) expandCube(c cube.Cube, fd cube.Cover) cube.Cube {
	e := m.words.Clone(c)
	for v := 0; v < c.NumVars(); v++ {
		p := c.Get(v)
		if p != cube.Pos && p != cube.Neg {
			continue
		}
		old := e.Get(v)
		e.Set(v, cube.Free)
		if !fd.ContainsCubeUsing(e, m.scratch) {
			e.Set(v, old)
		}
	}
	return e
}

// irredundant is Irredundant on span f: a sortByLits copy, from which each
// cube, smallest first, is dropped in place when the others and dc cover
// it.
//
//bdslint:hotpath
func (m *minArena) irredundant(f span, dc []cube.Cube) span {
	s := m.push(m.cubes(f))
	cs := m.cubes(s)
	sortByLits(cs) // fewest literals (largest cubes) first => removed last below
	for i := len(cs) - 1; i >= 0; i-- {
		m.against = append(append(append(m.against[:0], cs[:i]...), cs[i+1:]...), dc...)
		if m.cover(m.against).ContainsCubeUsing(cs[i], m.scratch) {
			cs = append(cs[:i], cs[i+1:]...)
		}
	}
	m.stk = m.stk[:s.lo+len(cs)]
	return span{s.lo, s.lo + len(cs)}
}

// reduce is Reduce on span f: a sortByLits copy, each cube reduced
// against the reduced earlier cubes, the unreduced later ones and dc.
//
//bdslint:hotpath
func (m *minArena) reduce(f span, dc []cube.Cube) span {
	// Process smallest last (classic heuristic: reduce large cubes first).
	cs := m.push(m.cubes(f))
	sortByLits(m.cubes(cs))
	out := span{len(m.stk), len(m.stk)}
	for i := 0; i < cs.len(); i++ {
		m.against = m.against[:0]
		for j := 0; j < cs.len(); j++ {
			switch {
			case j == i:
			case j < out.len(): // the already-reduced version
				m.against = append(m.against, m.stk[out.lo+j])
			default:
				m.against = append(m.against, m.stk[cs.lo+j])
			}
		}
		m.against = append(m.against, dc...)
		m.stk = append(m.stk, m.reduceCube(m.stk[cs.lo+i], m.cover(m.against)))
		out.hi++
	}
	return out
}

// reduceCube returns the supercube of c ∧ ¬rest, the part of c that rest
// leaves uncovered, as an arena cube, or c itself when rest covers all of
// c. That supercube is a property of the function: it carries u exactly
// when every uncovered minterm has u = 1, that is when rest covers c·u'.
// So each free variable of c takes two containment checks instead of a
// complement of rest within c. Both halves covered means rest covers c.
// The checks run on the cube reduced so far, which gives the same answers:
// it still holds every uncovered minterm of c.
//
//bdslint:hotpath
func (m *minArena) reduceCube(c cube.Cube, rest cube.Cover) cube.Cube {
	top := m.words.Mark()
	r := m.words.Clone(c)
	for v := 0; v < r.NumVars(); v++ {
		if r.Get(v) != cube.Free {
			continue
		}
		r.Set(v, cube.Pos)
		posCovered := rest.ContainsCubeUsing(r, m.scratch)
		r.Set(v, cube.Neg)
		negCovered := rest.ContainsCubeUsing(r, m.scratch)
		switch {
		case posCovered && negCovered:
			m.words.Release(top)
			return c
		case negCovered:
			r.Set(v, cube.Pos)
		case !posCovered:
			r.Set(v, cube.Free)
		}
	}
	return r
}

// equal reports whether spans a and b hold the same cubes as multisets:
// both sorted into canonical order in scratch, then compared.
//
//bdslint:hotpath
func (m *minArena) equal(a, b span) bool {
	if a.len() != b.len() || m.cost(a) != m.cost(b) { // cube, then literal counts
		return false
	}
	ac := append(m.canon[0][:0], m.cubes(a)...)
	bc := append(m.canon[1][:0], m.cubes(b)...)
	m.canon[0], m.canon[1] = ac, bc
	slices.SortFunc(ac, canonOrder)
	slices.SortFunc(bc, canonOrder)
	for i := range ac {
		if !ac[i].Equal(bc[i]) {
			return false
		}
	}
	return true
}

// canonOrder is cube.SortLess as a comparison.
func canonOrder(a, b cube.Cube) int {
	switch {
	case cube.SortLess(a, b):
		return -1
	case cube.SortLess(b, a):
		return 1
	}
	return 0
}

func sortByLits(cs []cube.Cube) {
	// insertion sort: covers are small and this keeps determinism simple.
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && less(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func less(a, b cube.Cube) bool {
	al, bl := a.NumLits(), b.NumLits()
	if al != bl {
		return al < bl
	}
	return cube.SortLess(a, b)
}
