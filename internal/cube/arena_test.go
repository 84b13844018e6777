package cube

import (
	"math/rand"
	"testing"
)

// randomCube draws a cube over n variables with every phase, Empty
// included, so multi-word cubes and empty cubes both occur.
func randomCube(rng *rand.Rand, n int) Cube {
	c := New(n)
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			c.Set(v, Phase(rng.Intn(4)))
		}
	}
	return c
}

// TestArenaMatchesHeapOps checks every arena constructor against its heap
// counterpart on one- to three-word cubes, and FreeLitsOfEquals against
// FreeLitsOf: the same words, inputs left unwritten, and cubes built
// before the arena regrows still intact afterwards.
func TestArenaMatchesHeapOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a Arena
	for i := 0; i < 3000; i++ {
		n := []int{5, 40, 70}[i%3]
		c, d, e := randomCube(rng, n), randomCube(rng, n), randomCube(rng, n)
		cc, dc := c.Clone(), d.Clone()
		v := rng.Intn(n)
		m := a.Mark()
		got := []Cube{a.Clone(c), a.With(c, v, Free), a.FreeLitsOf(c, d), a.And(c, d)}
		want := []Cube{c, c.With(v, Free), c.FreeLitsOf(d), c.And(d)}
		for k := 0; k < 64; k++ {
			a.Clone(e) // regrow the arena under the cubes just built
		}
		for k := range want {
			if !got[k].Equal(want[k]) {
				t.Fatalf("arena op %d on %v, %v: got %v, want %v", k, c, d, got[k], want[k])
			}
		}
		if !c.Equal(cc) || !d.Equal(dc) {
			t.Fatalf("arena ops wrote their inputs: %v, %v became %v, %v", cc, dc, c, d)
		}
		for _, x := range []Cube{want[2], e} {
			if c.FreeLitsOfEquals(d, x) != c.FreeLitsOf(d).Equal(x) {
				t.Fatalf("FreeLitsOfEquals(%v, %v, %v) disagrees with FreeLitsOf", c, d, x)
			}
		}
		a.Release(m)
	}
	c, d := randomCube(rng, 70), randomCube(rng, 70)
	if allocs := testing.AllocsPerRun(50, func() {
		m := a.Mark()
		a.And(a.FreeLitsOf(a.With(c, 3, Free), d), d)
		c.FreeLitsOfEquals(d, c)
		a.Release(m)
	}); allocs != 0 {
		t.Errorf("a warmed arena allocated %.0f times", allocs)
	}
}
