package algebraic

import (
	"slices"
	"sync"

	"repro/internal/cube"
)

// The scratch side of FactorLits and WeakDivide. A cover is a span of cube
// headers on a stack; the words of every cube the kernel derives come from
// a cube.Arena. A frame marks both on entry and releases both on return,
// so a warmed arena allocates nothing: only WeakDivide's q and r reach the
// heap. Each step keeps the cube order of the Cover-level code it mirrors
// (Cover.SCC, MakeCubeFree, DivideByLiteral, Level0Kernel, WeakDivide), so
// the recursion sees the very sequences the Cover-level one would, empty
// cubes included (see DESIGN.md, "Factoring kernel: FactorLits on a cube
// arena"). Arena cubes never escape: WeakDivide clones its quotient out,
// and no input cube is written — the arena copies before it modifies.

// kernelArena is one call's scratch. arenas hands every call an arena of
// its own and takes it back on return, so concurrent callers (phase-B
// workers) never share one.
type kernelArena struct {
	words cube.Arena
	stk   []cube.Cube // cube headers; a cover is a span of them
	tally []int       // scc's per-cube literal counts
}

var arenas = sync.Pool{New: func() any { return new(kernelArena) }}

func getArena() *kernelArena { return arenas.Get().(*kernelArena) }

func putArena(a *kernelArena) {
	a.words.Release(0)
	a.stk = a.stk[:0]
	arenas.Put(a)
}

// span is the cover stk[lo:hi].
type span struct{ lo, hi int }

func (s span) len() int { return s.hi - s.lo }

// frame is an arena top, for release.
type frame struct{ words, stk int }

func (a *kernelArena) mark() frame { return frame{a.words.Mark(), len(a.stk)} }

func (a *kernelArena) release(m frame) {
	a.words.Release(m.words)
	a.stk = a.stk[:m.stk]
}

// push copies cube headers onto the stack as a new span.
//
//bdslint:hotpath
func (a *kernelArena) push(cs []cube.Cube) span {
	lo := len(a.stk)
	a.stk = append(a.stk, cs...)
	return span{lo, len(a.stk)}
}

// factorLits is FactorLits on span f.
//
//bdslint:hotpath
func (a *kernelArena) factorLits(f span, depth int) int {
	m := a.mark()
	n := a.factorFrame(a.scc(f), depth)
	a.release(m)
	return n
}

// factorFrame is one level of the quick-factor recursion on an SCC'd
// cover: the decisions of factorRec, counting instead of building. The
// count identities: Lits(flattenAnd(cubeExpr(cc), e)) = NumLits(cc)+Lits(e)
// (cc has a literal, e is never constant-0 here since the cube-free part
// is nonzero); Lits(buildQDR(d, q, r)) = Lits(q)+Lits(d)+Lits(r) (q is
// never zero at its call sites, and a universal-cube q counts 0 exactly
// like flattenAnd dropping the constant).
//
//bdslint:hotpath
func (a *kernelArena) factorFrame(f span, depth int) int {
	switch f.len() {
	case 0:
		return 0
	case 1:
		return a.stk[f.lo].NumLits()
	}
	if depth > maxFactorDepth {
		return a.numLits(f)
	}
	if cc := a.commonCube(f); cc.NumLits() > 0 {
		return cc.NumLits() + a.factorLits(a.freeLits(f, cc), depth+1)
	}
	lit, ok := a.repeatedLiteral(f)
	if !ok {
		return a.numLits(f) // sopExpr
	}
	qL, rL := a.divideByLiteral(f, lit)
	best := a.countQDR(1, qL, rL, depth)
	if k := a.level0Kernel(f, qL); k.len() < f.len() {
		q := a.weakQuotient(f, k)
		if n := q.len(); n > 0 && n*k.len() >= n+k.len() {
			r := a.remainder(f, q, k)
			if candK := a.countQDR(a.factorLits(k, depth+1), q, r, depth); candK < best {
				best = candK
			}
		}
	}
	return best
}

// countQDR is buildQDR's literal count: q·d + r.
//
//bdslint:hotpath
func (a *kernelArena) countQDR(dLits int, q, r span, depth int) int {
	n := a.factorLits(q, depth+1) + dLits
	if r.len() == 0 {
		return n
	}
	return n + a.factorLits(r, depth+1)
}

// numLits is Cover.NumLits of f.
//
//bdslint:hotpath
func (a *kernelArena) numLits(f span) int {
	n := 0
	for _, c := range a.stk[f.lo:f.hi] {
		n += c.NumLits()
	}
	return n
}

// scc is Cover.SCC of f: the same stable sort by literal count and the
// same single containment pass, so the same cubes in the same order.
//
//bdslint:hotpath
func (a *kernelArena) scc(f span) span {
	if f.len() <= 1 {
		return f
	}
	s := a.push(a.stk[f.lo:f.hi])
	cs := a.stk[s.lo:s.hi]
	lits := a.tally[:0]
	for _, c := range cs {
		lits = append(lits, c.NumLits())
	}
	a.tally = lits
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
	a.stk = a.stk[:s.lo+kept]
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

// commonCube is CommonCube of a nonzero f, as an arena cube.
//
//bdslint:hotpath
func (a *kernelArena) commonCube(f span) cube.Cube {
	cc := a.words.Clone(a.stk[f.lo])
	for _, c := range a.stk[f.lo+1 : f.hi] {
		cc.UnionWith(c) // phases that disagree widen to Free
	}
	return cc
}

// freeLits pushes every cube of f with cc's literals freed: MakeCubeFree's
// quotient when cc is f's common cube.
//
//bdslint:hotpath
func (a *kernelArena) freeLits(f span, cc cube.Cube) span {
	lo := len(a.stk)
	for i := f.lo; i < f.hi; i++ {
		a.stk = append(a.stk, a.words.FreeLitsOf(a.stk[i], cc))
	}
	return span{lo, len(a.stk)}
}

// makeCubeFree is MakeCubeFree's cover for a nonzero f: f itself when its
// common cube has no literal.
//
//bdslint:hotpath
func (a *kernelArena) makeCubeFree(f span) span {
	m := a.words.Mark()
	cc := a.commonCube(f)
	if cc.NumLits() == 0 {
		a.words.Release(m)
		return f
	}
	return a.freeLits(f, cc)
}

// repeatedLiteral is the package's repeatedLiteral on a nonzero span.
//
//bdslint:hotpath
func (a *kernelArena) repeatedLiteral(f span) (literal, bool) {
	cs := a.stk[f.lo:f.hi]
	best := literal{}
	bestN := 1
	for v := 0; v < cs[0].NumVars(); v++ {
		pos, neg := 0, 0
		for _, c := range cs {
			switch c.Get(v) {
			case cube.Pos:
				pos++
			case cube.Neg:
				neg++
			}
		}
		if neg > bestN {
			best, bestN = literal{v, cube.Neg}, neg
		}
		if pos > bestN {
			best, bestN = literal{v, cube.Pos}, pos
		}
	}
	return best, bestN >= 2
}

// literalQuotient pushes DivideByLiteral(f, l)'s quotient.
//
//bdslint:hotpath
func (a *kernelArena) literalQuotient(f span, l literal) span {
	lo := len(a.stk)
	for i := f.lo; i < f.hi; i++ {
		if c := a.stk[i]; c.Get(l.v) == l.p {
			a.stk = append(a.stk, a.words.With(c, l.v, cube.Free))
		}
	}
	return span{lo, len(a.stk)}
}

// divideByLiteral pushes DivideByLiteral(f, l)'s quotient and remainder.
//
//bdslint:hotpath
func (a *kernelArena) divideByLiteral(f span, l literal) (q, r span) {
	q = a.literalQuotient(f, l)
	lo := len(a.stk)
	for i := f.lo; i < f.hi; i++ {
		if c := a.stk[i]; c.Get(l.v) != l.p {
			a.stk = append(a.stk, c)
		}
	}
	return q, span{lo, len(a.stk)}
}

// level0Kernel is Level0Kernel(f) for a cube-free f of two or more cubes,
// given q, the quotient of f by its repeated literal: the path Level0Kernel
// walks from f, whose first step divides by that same literal.
//
//bdslint:hotpath
func (a *kernelArena) level0Kernel(f, q span) span {
	g := f
	for {
		if q.len() < 2 {
			return g
		}
		g = a.makeCubeFree(q)
		l, ok := a.repeatedLiteral(g)
		if !ok {
			return g
		}
		q = a.literalQuotient(g, l)
	}
}

// weakQuotient pushes WeakDivide(f, d)'s quotient, in Canon order, for a
// nonzero d; an empty span means d does not divide f. Quotient cubes are
// keyed as WeakDivide's contract has it: a nonempty cube by its words,
// and every empty cube by one shared key, which the last empty quotient
// of d's first cube holds.
//
//bdslint:hotpath
func (a *kernelArena) weakQuotient(f, d span) span {
	d0 := a.stk[d.lo]
	lo := len(a.stk)
	empty := -1 // the quotient's empty cube, if any
	for i := f.lo; i < f.hi; i++ {
		c := a.stk[i]
		if !d0.Contains(c) {
			continue
		}
		m := a.words.Mark()
		qc := a.words.FreeLitsOf(c, d0)
		switch {
		case qc.IsEmpty():
			if empty >= 0 {
				a.stk[empty] = qc
				continue
			}
			empty = len(a.stk)
		case holds(a.stk[lo:], qc):
			a.words.Release(m)
			continue
		}
		a.stk = append(a.stk, qc)
	}
	for j := d.lo + 1; j < d.hi && len(a.stk) > lo; j++ {
		dk := a.stk[j]
		kept := lo
		for i := lo; i < len(a.stk); i++ {
			if a.yields(f, dk, a.stk[i]) {
				a.stk[kept] = a.stk[i]
				kept++
			}
		}
		a.stk = a.stk[:kept]
	}
	slices.SortFunc(a.stk[lo:], canonCmp)
	return span{lo, len(a.stk)}
}

// yields reports whether some cube of f divided by dk has t's key.
//
//bdslint:hotpath
func (a *kernelArena) yields(f span, dk, t cube.Cube) bool {
	empty := t.IsEmpty()
	for _, c := range a.stk[f.lo:f.hi] {
		if !dk.Contains(c) {
			continue
		}
		if !empty {
			if c.FreeLitsOfEquals(dk, t) {
				return true
			}
			continue
		}
		m := a.words.Mark()
		e := a.words.FreeLitsOf(c, dk).IsEmpty()
		a.words.Release(m)
		if e {
			return true
		}
	}
	return false
}

// remainder pushes WeakDivide(f, d)'s remainder for quotient q: the cubes
// of f, in order, that no nonempty product of a q cube and a d cube
// equals. An empty cube of f is never produced.
//
//bdslint:hotpath
func (a *kernelArena) remainder(f, q, d span) span {
	lo := len(a.stk)
	for _, qc := range a.stk[q.lo:q.hi] {
		for j := d.lo; j < d.hi; j++ {
			m := a.words.Mark()
			if p := a.words.And(qc, a.stk[j]); p.IsEmpty() {
				a.words.Release(m)
			} else {
				a.stk = append(a.stk, p)
			}
		}
	}
	prod := span{lo, len(a.stk)}
	lo = len(a.stk)
	for i := f.lo; i < f.hi; i++ {
		if c := a.stk[i]; c.IsEmpty() || !holds(a.stk[prod.lo:prod.hi], c) {
			a.stk = append(a.stk, c)
		}
	}
	return span{lo, len(a.stk)}
}

// holds reports whether some cube of cs equals c word for word.
//
//bdslint:hotpath
func holds(cs []cube.Cube, c cube.Cube) bool {
	for _, k := range cs {
		if k.Equal(c) {
			return true
		}
	}
	return false
}

// canonCmp is cube.Canon's order as a three-way comparison.
func canonCmp(x, y cube.Cube) int {
	switch {
	case cube.SortLess(x, y):
		return -1
	case cube.SortLess(y, x):
		return 1
	}
	return 0
}
