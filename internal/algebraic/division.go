// Package algebraic implements the cover-level algebra of multilevel logic
// synthesis: weak (algebraic) division, kernel extraction, and algebraic
// factoring with factored-form literal counting — the cost metric used by
// SIS and by the paper's experimental tables. Network-level commands built
// on these primitives (resub, gcx, gkx, decomp) live in internal/opt.
package algebraic

import (
	"slices"

	"repro/internal/cube"
)

// WeakDivide performs algebraic (weak) division of f by the divisor d,
// returning quotient q and remainder r with f = q·d + r as algebraic
// expressions (set-of-cubes semantics, no Boolean identities). The quotient
// is zero when d does not algebraically divide f. q is in cube.Canon order
// and r in f's order (r shares f's cubes; when the quotient is zero it is
// a clone of f). Quotient cubes are compared by key: a nonempty cube by
// its words, and every empty cube by one shared key, so q holds at most
// one empty cube, the last one d's first cube yields; an empty cube of f
// always lands in r. The work runs on a pooled cube arena (see arena.go),
// so the call allocates only q and r. It is safe for concurrent use and
// never writes f or d.
func WeakDivide(f, d cube.Cover) (q, r cube.Cover) {
	n := f.NumVars()
	q = cube.NewCover(n)
	r = cube.NewCover(n)
	if d.IsZero() {
		r = f.Clone()
		return q, r
	}
	a := getArena()
	fs, ds := a.push(f.Cubes), a.push(d.Cubes)
	qs := a.weakQuotient(fs, ds)
	if qs.len() == 0 {
		putArena(a)
		r = f.Clone()
		return q, r
	}
	q.Cubes = make([]cube.Cube, qs.len())
	for i := range q.Cubes {
		q.Cubes[i] = a.stk[qs.lo+i].Clone()
	}
	if rs := a.remainder(fs, qs, ds); rs.len() > 0 {
		r.Cubes = slices.Clone(a.stk[rs.lo:rs.hi])
	}
	putArena(a)
	return q, r
}

// divideCube returns c with dk's literals removed, when dk's literals are a
// subset of c's (i.e. dk contains c) and the result shares no variable with
// dk; otherwise ok is false.
func divideCube(c, dk cube.Cube) (cube.Cube, bool) {
	if !dk.Contains(c) {
		return cube.Cube{}, false
	}
	return c.FreeLitsOf(dk), true
}

// DivideByLiteral divides f by a single literal (var v with phase p),
// returning the quotient (cubes containing the literal, literal removed)
// and remainder (the other cubes).
func DivideByLiteral(f cube.Cover, v int, p cube.Phase) (q, r cube.Cover) {
	n := f.NumVars()
	q, r = cube.NewCover(n), cube.NewCover(n)
	for _, c := range f.Cubes {
		if c.Get(v) == p {
			q.Cubes = append(q.Cubes, c.With(v, cube.Free))
		} else {
			r.Cubes = append(r.Cubes, c)
		}
	}
	return q, r
}

// CommonCube returns the largest cube dividing every cube of f (its
// supercube complement ... simply the intersection of literal sets), or the
// universal cube if none. A cover is cube-free iff CommonCube is universal.
func CommonCube(f cube.Cover) cube.Cube {
	if f.IsZero() {
		return cube.New(f.NumVars())
	}
	common := f.Cubes[0].Clone()
	for _, c := range f.Cubes[1:] {
		common.UnionWith(c) // phases that disagree widen to Free
	}
	return common
}

// MakeCubeFree divides out the common cube, returning the cube-free cover
// and the common cube that was removed.
func MakeCubeFree(f cube.Cover) (cube.Cover, cube.Cube) {
	cc := CommonCube(f)
	if cc.NumLits() == 0 {
		return f.Clone(), cc
	}
	out := cube.NewCover(f.NumVars())
	for _, c := range f.Cubes {
		q, _ := divideCube(c, cc)
		out.Cubes = append(out.Cubes, q)
	}
	return out, cc
}

// IsCubeFree reports whether no single literal divides every cube.
func IsCubeFree(f cube.Cover) bool { return CommonCube(f).NumLits() == 0 }

// Kernel is a cube-free quotient of a cover by a cube (its co-kernel).
type Kernel struct {
	K        cube.Cover // the kernel (cube-free, ≥ 2 cubes unless level-0 trivial)
	CoKernel cube.Cube
}

// Kernels returns all kernels of f (including f itself if cube-free), with
// co-kernels, capped at max entries (0 = no cap). Duplicate kernels with
// different co-kernels are all reported.
func Kernels(f cube.Cover, max int) []Kernel {
	var out []Kernel
	ff, cc := MakeCubeFree(f)
	if ff.NumCubes() >= 2 {
		out = append(out, Kernel{K: ff, CoKernel: cc})
	}
	lits := literalUniverse(ff)
	seen := make(map[string]bool)
	kernelRec(ff, cc, 0, lits, &out, seen, max)
	return out
}

// literalUniverse lists the distinct (var, phase) literals of f in a fixed
// order.
type literal struct {
	v int
	p cube.Phase
}

func literalUniverse(f cube.Cover) []literal {
	var out []literal
	for v := 0; v < f.NumVars(); v++ {
		pos, neg := 0, 0
		for _, c := range f.Cubes {
			switch c.Get(v) {
			case cube.Pos:
				pos++
			case cube.Neg:
				neg++
			}
		}
		if neg > 0 {
			out = append(out, literal{v, cube.Neg})
		}
		if pos > 0 {
			out = append(out, literal{v, cube.Pos})
		}
	}
	return out
}

func kernelRec(g cube.Cover, coker cube.Cube, start int, lits []literal, out *[]Kernel, seen map[string]bool, max int) {
	if max > 0 && len(*out) >= max {
		return
	}
	for i := start; i < len(lits); i++ {
		l := lits[i]
		q, _ := DivideByLiteral(g, l.v, l.p)
		if q.NumCubes() < 2 {
			continue
		}
		qf, cc := MakeCubeFree(q)
		// Skip if the common cube contains a literal earlier in the order —
		// that kernel is found on another path (standard pruning).
		skip := false
		for j := 0; j < i; j++ {
			if cc.Get(lits[j].v) == lits[j].p {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		ck := coker.Clone()
		ck.Set(l.v, l.p)
		ck = ck.And(cc)
		key := qf.String()
		if !seen[key+"|"+ck.String()] {
			seen[key+"|"+ck.String()] = true
			*out = append(*out, Kernel{K: qf, CoKernel: ck})
			if max > 0 && len(*out) >= max {
				return
			}
		}
		kernelRec(qf, ck, i+1, lits, out, seen, max)
	}
}

// Level0Kernel returns one level-0 kernel of f (a kernel with no kernels but
// itself), following a single cheap path; ok is false when f has no kernel
// (fewer than two cubes after making cube-free, or no repeated literal).
func Level0Kernel(f cube.Cover) (cube.Cover, bool) {
	g, _ := MakeCubeFree(f)
	if g.NumCubes() < 2 {
		return cube.Cover{}, false
	}
	for {
		l, ok := repeatedLiteral(g)
		if !ok {
			return g, true
		}
		q, _ := DivideByLiteral(g, l.v, l.p)
		q, _ = MakeCubeFree(q)
		if q.NumCubes() < 2 {
			// Shouldn't happen for a repeated literal, but guard anyway.
			return g, true
		}
		g = q
	}
}

// repeatedLiteral returns a literal appearing in at least two cubes,
// preferring the most frequent one.
func repeatedLiteral(f cube.Cover) (literal, bool) {
	// Same scan order as counting over literalUniverse (variables ascending,
	// Neg before Pos) with strict improvement, so the same literal wins —
	// without materializing the universe.
	best := literal{}
	bestN := 1
	for v := 0; v < f.NumVars(); v++ {
		pos, neg := 0, 0
		for _, c := range f.Cubes {
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
