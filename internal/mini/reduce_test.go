package mini

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
)

// complementReduceCube is reduceCube as the complement formula states it:
// the supercube of the complement of rest within c, intersected with c, or
// c itself when that complement is empty.
func complementReduceCube(c cube.Cube, rest cube.Cover) cube.Cube {
	rc := rest.Cofactor(c).Complement()
	if rc.IsZero() {
		return c
	}
	sup := rc.Cubes[0].Clone()
	for _, k := range rc.Cubes[1:] {
		sup = sup.Supercube(k)
	}
	return sup.And(c)
}

func randomCube(r *rand.Rand, n int) cube.Cube {
	c := cube.New(n)
	for v := 0; v < n; v++ {
		switch r.Intn(4) {
		case 0:
			c.Set(v, cube.Pos)
		case 1:
			c.Set(v, cube.Neg)
		}
	}
	return c
}

// TestReduceCubeMatchesComplementFormula checks the containment-check
// reduction, on the arena, against the complement formula it replaces,
// cube for cube, over random covers with and without don't-cares.
func TestReduceCubeMatchesComplementFormula(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(10)
		f := cube.NewCover(n)
		for k := 1 + r.Intn(8); k > 0; k-- {
			f.Add(randomCube(r, n))
		}
		dc := cube.NewCover(n)
		for k := r.Intn(3); k > 0; k-- {
			dc.Add(randomCube(r, n))
		}
		m := getArena(f)
		for i, c := range f.Cubes {
			rest := cube.NewCover(n)
			rest.Cubes = append(rest.Cubes, f.Cubes[:i]...)
			rest.Cubes = append(rest.Cubes, f.Cubes[i+1:]...)
			rest.Cubes = append(rest.Cubes, dc.Cubes...)
			got, want := m.reduceCube(c, rest), complementReduceCube(c, rest)
			if !got.Equal(want) {
				t.Fatalf("f = %v, dc = %v, cube %v: reduceCube = %v, complement formula = %v", f, dc, c, got, want)
			}
		}
		putArena(m)
	}
}
