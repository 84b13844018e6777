package cube

import (
	"math"
	"testing"
)

// wideCover is abc + def + ghi + jkl + mno + pqr + stu + vw over 23
// variables: eight cubes on disjoint supports, whose complement is the
// product of their complements — a wide product of sums that expands to
// 3^7 · 2 = 4374 cubes.
func wideCover() Cover {
	return ParseCover(23, "abc + def + ghi + jkl + mno + pqr + stu + vw")
}

// decodeCover reads a cover of up to 8 cubes over 1 to 24 variables. The
// header byte h gives n = 1 + h%24; each cube then takes ceil(2n/8) bytes,
// two bits per variable in the positional code, with 00 read as Free. A
// header of 240 or more also empties cube h%8 if the input reaches it, so
// the empty-cube path gets explored without most cubes being empty.
func decodeCover(data []byte) Cover {
	if len(data) == 0 {
		return NewCover(1)
	}
	h := data[0]
	n := 1 + int(h)%24
	per := (2*n + 7) / 8
	f := NewCover(n)
	for data = data[1:]; len(f.Cubes) < 8 && len(data) >= per; data = data[per:] {
		c := New(n)
		for v := 0; v < n; v++ {
			if p := Phase(data[v/4] >> (2 * uint(v%4)) & 0b11); p != Empty {
				c.Set(v, p)
			}
		}
		if h >= 240 && len(f.Cubes) == int(h%8) {
			c.Set(0, Empty)
		}
		f.Cubes = append(f.Cubes, c)
	}
	return f
}

// withoutEmpty drops the empty cubes of f, as Cover.Add would have.
func withoutEmpty(f Cover) Cover {
	g := NewCover(f.n)
	for _, c := range f.Cubes {
		g.Add(c)
	}
	return g
}

// rawCubes returns the recursion's output in leaf order, before sorting.
func (cx *complementer) rawCubes() []Cube {
	out := make([]Cube, cx.count)
	for k := range out {
		out[k] = cx.cube(k)
	}
	return out
}

func sameCubes(t *testing.T, what string, got, want Cover) {
	t.Helper()
	if got.NumVars() != want.NumVars() || len(got.Cubes) != len(want.Cubes) {
		t.Fatalf("%s: %d cubes over %d vars, want %d over %d", what, len(got.Cubes), got.NumVars(), len(want.Cubes), want.NumVars())
	}
	for i := range want.Cubes {
		if !got.Cubes[i].Equal(want.Cubes[i]) {
			t.Fatalf("%s: cube %d is %v, want %v", what, i, got.Cubes[i], want.Cubes[i])
		}
	}
}

// FuzzComplement checks the budgeted in-place complement against the
// reference recursion: the same cubes in the same order, a raw recursion
// output free of contained and duplicate cubes (the reason the SCC pass
// could go), and ComplementAtMost accepting exactly the budgets the
// reference's cube count fits.
func FuzzComplement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0b1001, 0b0110, 0b1111})
	f.Add([]byte{241, 0b1110, 0b1011}) // a lone empty cube: constant 1
	f.Fuzz(func(t *testing.T, data []byte) {
		cov := decodeCover(data)
		want := referenceComplement(withoutEmpty(cov))
		sameCubes(t, "Complement", cov.Complement(), want)

		cx, ok := complementRaw(cov, math.MaxInt)
		if !ok {
			t.Fatal("unbounded complement reported over budget")
		}
		raw := cx.rawCubes()
		for i, a := range raw {
			for j, b := range raw {
				if i != j && a.Contains(b) {
					t.Fatalf("raw output cube %d (%v) contains cube %d (%v)", i, a, j, b)
				}
			}
		}

		nc := len(want.Cubes)
		for _, k := range []int{-1, 0, 1, nc - 1, nc, nc + 1, 24} {
			g, ok := cov.ComplementAtMost(k)
			if ok != (nc <= k) {
				t.Fatalf("ComplementAtMost(%d) = %v for a %d-cube complement", k, ok, nc)
			}
			if ok {
				sameCubes(t, "ComplementAtMost", g, want)
			}
		}
	})
}

func TestComplementLoneEmptyCube(t *testing.T) {
	f := NewCover(2)
	f.Cubes = append(f.Cubes, Parse(2, "0"))
	g := f.Complement()
	if g.NumCubes() != 1 || !g.Cubes[0].IsUniverse() {
		t.Fatalf("complement of a lone empty cube = %v, want 1", g)
	}
	if _, ok := f.ComplementAtMost(0); ok {
		t.Error("ComplementAtMost(0) accepted the one-cube constant 1")
	}
	// Empty cubes beside real ones are dropped too: the result is the
	// complement of the real ones alone.
	f.Cubes = append(f.Cubes, Parse(2, "a"))
	sameCubes(t, "empty + a", f.Complement(), ParseCover(2, "a'"))
}

func TestComplementAtMostWideCover(t *testing.T) {
	f := wideCover()
	full := f.Complement()
	if full.NumCubes() != 4374 {
		t.Fatalf("wide complement has %d cubes, want 4374", full.NumCubes())
	}
	if !f.Or(full).IsTautology() || !f.And(full).IsZero() {
		t.Fatal("wide complement is not the complement")
	}
	for _, k := range []int{24, 4373} {
		if g, ok := f.ComplementAtMost(k); ok || g.NumCubes() != 0 {
			t.Errorf("ComplementAtMost(%d) accepted a 4374-cube complement", k)
		}
	}
	g, ok := f.ComplementAtMost(4374)
	if !ok {
		t.Fatal("ComplementAtMost(4374) rejected a 4374-cube complement")
	}
	sameCubes(t, "ComplementAtMost(4374)", g, full)
}
