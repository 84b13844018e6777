package mini

import "repro/internal/cube"

// Minimize and its EXPAND / IRREDUNDANT / REDUCE steps as they were built
// before the cube arena, kept word for word as the reference the arena
// versions must reproduce: the same cubes in the same order, for every
// cover, don't-care set and option (FuzzMinimize). They allocate a cover
// per step and a clone per expanded or reduced cube, and the result can
// share words with f: best may be f.SCC(), whose cubes are f's.

// referenceMinimize is the pre-arena Minimize.
func referenceMinimize(f cube.Cover, opt Options) cube.Cover {
	if f.IsZero() {
		return f.Clone()
	}
	dc := opt.DC
	if dc.NumVars() == 0 && f.NumVars() != 0 {
		dc = cube.NewCover(f.NumVars())
	}
	passes := opt.MaxPasses
	if passes == 0 {
		passes = 4
	}
	cur := f.SCC()
	best := cur
	bestCost := cost(best)
	for p := 0; p < passes; p++ {
		cur = referenceExpand(cur, dc)
		cur = referenceIrredundant(cur, dc)
		c := cost(cur)
		if c < bestCost {
			best, bestCost = cur, c
		}
		if opt.SingleExpand {
			break
		}
		reduced := referenceReduce(cur, dc)
		if coversEqual(reduced, cur) {
			break
		}
		cur = reduced
	}
	return best
}

func coversEqual(a, b cube.Cover) bool {
	if a.NumCubes() != b.NumCubes() || a.NumLits() != b.NumLits() {
		return false
	}
	ac := append([]cube.Cube(nil), a.Cubes...)
	bc := append([]cube.Cube(nil), b.Cubes...)
	cube.Canon(ac)
	cube.Canon(bc)
	for i := range ac {
		if !ac[i].Equal(bc[i]) {
			return false
		}
	}
	return true
}

// referenceExpand is the pre-arena Expand. It enlarges each cube to a
// prime of f ∪ DC by removing literals one at a time while the enlarged
// cube stays contained in the function, then drops cubes covered by
// previously expanded ones.
func referenceExpand(f, dc cube.Cover) cube.Cover {
	n := f.NumVars()
	fd := cube.NewCover(n)
	fd.Cubes = append(fd.Cubes, f.Cubes...)
	fd.Cubes = append(fd.Cubes, dc.Cubes...)

	// Expand biggest cubes first so they absorb the most.
	cs := append([]cube.Cube(nil), f.Cubes...)
	sortByLits(cs)
	out := cube.NewCover(n)
	scratch := cube.New(n)
	for _, c := range cs {
		// Already covered by an expanded prime?
		covered := false
		for _, k := range out.Cubes {
			if k.Contains(c) {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		e := expandCube(c, fd, scratch)
		out.Cubes = append(out.Cubes, e)
	}
	return out.SCC()
}

// expandCube removes literals from c while containment in fd holds. The
// candidate cube is mutated in place and the literal restored on failure —
// equivalent to testing a fresh copy per literal, without the copies.
func expandCube(c cube.Cube, fd cube.Cover, scratch cube.Cube) cube.Cube {
	e := c.Clone()
	for v := 0; v < c.NumVars(); v++ {
		p := c.Get(v)
		if p != cube.Pos && p != cube.Neg {
			continue
		}
		old := e.Get(v)
		e.Set(v, cube.Free)
		if !fd.ContainsCubeUsing(e, scratch) {
			e.Set(v, old)
		}
	}
	return e
}

// referenceIrredundant is the pre-arena Irredundant. It removes cubes that
// are covered by the union of the remaining cubes and the don't-care set,
// processing largest cubes last so the relatively-essential ones survive.
func referenceIrredundant(f, dc cube.Cover) cube.Cover {
	n := f.NumVars()
	cs := append([]cube.Cube(nil), f.Cubes...)
	sortByLits(cs) // fewest literals (largest cubes) first => removed last below
	// Try removing in reverse: smallest cubes first. One rest buffer is
	// reused across iterations — its contents are rebuilt each time.
	rest := cube.NewCover(n)
	rest.Cubes = make([]cube.Cube, 0, len(cs)+len(dc.Cubes))
	scratch := cube.New(n)
	for i := len(cs) - 1; i >= 0; i-- {
		rest.Cubes = rest.Cubes[:0]
		for j, k := range cs {
			if j != i {
				rest.Cubes = append(rest.Cubes, k)
			}
		}
		rest.Cubes = append(rest.Cubes, dc.Cubes...)
		if rest.ContainsCubeUsing(cs[i], scratch) {
			cs = append(cs[:i], cs[i+1:]...)
		}
	}
	out := cube.NewCover(n)
	out.Cubes = cs
	return out
}

// referenceReduce is the pre-arena Reduce. It shrinks each cube, largest
// first, to the smallest cube that still covers the minterms only it
// covers: its part outside the rest of the cover (earlier cubes in their
// reduced form) and the don't-care set. The next Expand can then grow the
// cube in a new direction and escape a local minimum. A cube the rest
// covers entirely is kept as it is: Irredundant owns removal decisions.
func referenceReduce(f, dc cube.Cover) cube.Cover {
	n := f.NumVars()
	out := cube.NewCover(n)
	cs := append([]cube.Cube(nil), f.Cubes...)
	// Process smallest last (classic heuristic: reduce large cubes first).
	sortByLits(cs)
	rest := cube.NewCover(n)
	rest.Cubes = make([]cube.Cube, 0, len(cs)+len(dc.Cubes))
	scratch := cube.New(n)
	for i, c := range cs {
		rest.Cubes = rest.Cubes[:0]
		for j := range cs {
			if j == i {
				continue
			}
			// Use already-reduced versions for earlier cubes.
			if j < len(out.Cubes) {
				rest.Cubes = append(rest.Cubes, out.Cubes[j])
			} else {
				rest.Cubes = append(rest.Cubes, cs[j])
			}
		}
		rest.Cubes = append(rest.Cubes, dc.Cubes...)
		out.Cubes = append(out.Cubes, reduceCube(c, rest, scratch))
	}
	return out
}

// reduceCube returns the supercube of c ∧ ¬rest, the part of c that rest
// leaves uncovered, or c itself when rest covers all of c. That supercube
// is a property of the function: it carries u exactly when every
// uncovered minterm has u = 1, that is when rest covers c·u'. So each free
// variable of c takes two containment checks instead of a complement of
// rest within c. Both halves covered means rest covers c. The checks run
// on the cube reduced so far, which gives the same answers: it still holds
// every uncovered minterm of c. scratch is ContainsCubeUsing's scratch.
func reduceCube(c cube.Cube, rest cube.Cover, scratch cube.Cube) cube.Cube {
	r := c.Clone()
	for v := 0; v < r.NumVars(); v++ {
		if r.Get(v) != cube.Free {
			continue
		}
		r.Set(v, cube.Pos)
		posCovered := rest.ContainsCubeUsing(r, scratch)
		r.Set(v, cube.Neg)
		negCovered := rest.ContainsCubeUsing(r, scratch)
		switch {
		case posCovered && negCovered:
			return c
		case negCovered:
			r.Set(v, cube.Pos)
		case !posCovered:
			r.Set(v, cube.Free)
		}
	}
	return r
}
