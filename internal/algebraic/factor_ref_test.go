package algebraic

import "repro/internal/cube"

// FactorLits and WeakDivide as they were built before the cube arena,
// kept word for word as the reference the arena versions must reproduce:
// the same count for every cover, and the same quotient and remainder
// cube for cube, in order (FuzzFactorLits, FuzzWeakDivide). Both allocate
// a cover per recursion level; WeakDivide keys its sets by Cube.String.

// referenceFactorLits is the pre-change FactorLits.
func referenceFactorLits(f cube.Cover) int {
	return factorLitsRec(f.SCC(), 0)
}

// factorLitsRec is factorRec without the tree. The count identities:
// Lits(flattenAnd(cubeExpr(cc), e)) = NumLits(cc)+Lits(e) (cc has a literal,
// e is never constant-0 here since ff is nonzero); Lits(buildQDR(d, q, r)) =
// Lits(q)+Lits(d)+Lits(r) (q is never zero at its call sites, and a
// universal-cube q counts 0 exactly like flattenAnd dropping the constant).
func factorLitsRec(f cube.Cover, depth int) int {
	f = f.SCC()
	if f.IsZero() {
		return 0
	}
	if f.NumCubes() == 1 {
		return f.Cubes[0].NumLits()
	}
	if depth > maxFactorDepth {
		return f.NumLits()
	}
	ff, cc := MakeCubeFree(f)
	if cc.NumLits() > 0 {
		return cc.NumLits() + factorLitsRec(ff, depth+1)
	}
	lit, ok := repeatedLiteral(f)
	if !ok {
		return f.NumLits() // sopExpr
	}
	qL, rL := DivideByLiteral(f, lit.v, lit.p)
	best := countQDR(1, qL, rL, depth)
	if k, ok := Level0Kernel(f); ok && k.NumCubes() >= 2 && k.NumCubes() < f.NumCubes() {
		q, r := referenceWeakDivide(f, k)
		if !q.IsZero() && q.NumCubes()*k.NumCubes() >= q.NumCubes()+k.NumCubes() {
			if candK := countQDR(factorLitsRec(k, depth+1), q, r, depth); candK < best {
				best = candK
			}
		}
	}
	return best
}

// countQDR is buildQDR's literal count: q·d + r.
func countQDR(dLits int, q, r cube.Cover, depth int) int {
	n := factorLitsRec(q, depth+1) + dLits
	if r.IsZero() {
		return n
	}
	return n + factorLitsRec(r, depth+1)
}

// referenceWeakDivide is the pre-change WeakDivide.
func referenceWeakDivide(f, d cube.Cover) (q, r cube.Cover) {
	n := f.NumVars()
	q = cube.NewCover(n)
	r = cube.NewCover(n)
	if d.IsZero() {
		r = f.Clone()
		return q, r
	}
	// Quotient = intersection over divisor cubes of { c/dk : dk ⊆-lits c }.
	var qset map[string]cube.Cube
	for i, dk := range d.Cubes {
		cur := make(map[string]cube.Cube)
		for _, c := range f.Cubes {
			if qc, ok := divideCube(c, dk); ok {
				cur[coverKey(qc)] = qc
			}
		}
		if i == 0 {
			qset = cur
		} else {
			for k := range qset {
				if _, ok := cur[k]; !ok {
					delete(qset, k)
				}
			}
		}
		if len(qset) == 0 {
			r = f.Clone()
			return q, r
		}
	}
	for _, c := range qset {
		q.Cubes = append(q.Cubes, c)
	}
	cube.Canon(q.Cubes)
	// Remainder: cubes of f not produced by q·d.
	prod := make(map[string]bool)
	for _, qc := range q.Cubes {
		for _, dk := range d.Cubes {
			p := qc.And(dk)
			if !p.IsEmpty() {
				prod[coverKey(p)] = true
			}
		}
	}
	for _, c := range f.Cubes {
		if !prod[coverKey(c)] {
			r.Cubes = append(r.Cubes, c)
		}
	}
	return q, r
}

// coverKey gives a canonical map key for a cube.
func coverKey(c cube.Cube) string {
	// Reuse String: canonical per-cube since literal order is by variable.
	return c.String()
}
