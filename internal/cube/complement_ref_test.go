package cube

// The complement as it was built before the budgeted, in-place recursion:
// complement(f).SCC(), kept word for word as the reference that Complement
// and ComplementAtMost must reproduce cube for cube (FuzzComplement).
// The recursion clones every cube at every merge and relies on the final
// SCC for its order; it reads a lone empty cube as the constant 0, so it
// is only consulted on covers without empty cubes.

// referenceComplement is the pre-change Cover.Complement.
func referenceComplement(f Cover) Cover {
	return complement(f).SCC()
}

func complement(f Cover) Cover {
	n := f.n
	if len(f.Cubes) == 0 {
		g := NewCover(n)
		g.Cubes = append(g.Cubes, New(n))
		return g
	}
	for _, c := range f.Cubes {
		if c.IsUniverse() {
			return NewCover(n)
		}
	}
	if len(f.Cubes) == 1 {
		return complementCube(f.Cubes[0])
	}
	v, binate := mostBinateVar(f)
	if !binate {
		// Pick the most frequent variable (lowest index on ties) to keep
		// recursion shallow and deterministic.
		best, bc := -1, -1
		for u := 0; u < f.n; u++ {
			i, s := u/varsPerWord, 2*uint(u%varsPerWord)
			k := 0
			for _, c := range f.Cubes {
				if p := Phase(c.w[i] >> s & 0b11); p == Pos || p == Neg {
					k++
				}
			}
			if k > bc {
				best, bc = u, k
			}
		}
		v = best
	}
	pos := New(n)
	pos.Set(v, Pos)
	neg := New(n)
	neg.Set(v, Neg)
	cp := complement(f.Cofactor(pos))
	cn := complement(f.Cofactor(neg))
	g := NewCover(n)
	for _, c := range cp.Cubes {
		d := c.Clone()
		if !d.ContainsVar(v) {
			d.Set(v, Pos)
		} else if d.Get(v) == Neg {
			continue // x · (x'-cube) is empty
		}
		g.Cubes = append(g.Cubes, d)
	}
	for _, c := range cn.Cubes {
		d := c.Clone()
		if !d.ContainsVar(v) {
			d.Set(v, Neg)
		} else if d.Get(v) == Pos {
			continue
		}
		g.Cubes = append(g.Cubes, d)
	}
	return g
}

// complementCube applies De Morgan to a single cube.
func complementCube(c Cube) Cover {
	g := NewCover(c.n)
	for _, v := range c.Lits() {
		k := New(c.n)
		if c.Get(v) == Pos {
			k.Set(v, Neg)
		} else {
			k.Set(v, Pos)
		}
		g.Cubes = append(g.Cubes, k)
	}
	return g
}
