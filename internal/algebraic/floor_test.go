package algebraic

import (
	"math"
	"testing"

	"repro/internal/cube"
	"repro/internal/mini"
)

// bruteFloor counts, over every assignment of f's n ≤ 8 variables, the
// variables f depends on plus the variables it is binate in.
func bruteFloor(f cube.Cover) int {
	n := f.NumVars()
	assign := make([]bool, n)
	eval := func(p int) bool {
		for v := range assign {
			assign[v] = p>>v&1 == 1
		}
		return f.Eval(assign)
	}
	floor := 0
	for v := 0; v < n; v++ {
		up, down := false, false
		for p := 0; p < 1<<n; p++ {
			if p>>v&1 == 1 {
				continue
			}
			zero, one := eval(p), eval(p|1<<v)
			up = up || !zero && one
			down = down || zero && !one
		}
		if up {
			floor++
		}
		if down {
			floor++
		}
	}
	return floor
}

// decodeFloorCover reads a fuzz input as decodeCovers does, over 1 to 12
// variables.
func decodeFloorCover(data []byte) cube.Cover {
	if len(data) > 0 {
		data = append([]byte{data[0] % 12}, data[1:]...)
	}
	return decodeCovers(data, 1)[0]
}

// FuzzLiteralFloor checks LiteralFloor against the literal counts it
// bounds: FactorLits of the cover, of its minimized form and of its
// minimized complement (on the cover without its empty cubes, whose
// factored form computes the cover's function). Up to 8 variables the
// floor must equal the brute-force count; an early stop must report at
// least its target and never more than the full floor; and empty cubes
// must not move the floor.
func FuzzLiteralFloor(f *testing.F) {
	seeds := []cube.Cover{
		cube.ParseCover(4, "ab + a'c + bc'd"),
		cube.ParseCover(3, "ab' + a'b"),
		cube.ParseCover(6, "abc + def"),
		cube.ParseCover(8, "ace + acf + ade + adf + bce + bcf + bde + bdf + gh"),
		cube.ParseCover(2, "a + a'"),
	}
	for _, s := range seeds {
		f.Add(encodeCovers(s.NumVars(), s))
	}
	wide := cube.ParseCover(6, "ab'c + a'bd + ce'f + b'df'")
	f.Add(encodeCovers(12, spread(wide, 12, 2)))
	f.Add([]byte{11, 1, 3, 0xFE, 0xFF, 5, 7, 9, 0xFF, 0xFD, 21, 22})
	f.Fuzz(func(t *testing.T, data []byte) {
		cov := decodeFloorCover(data)
		floor := LiteralFloor(cov, math.MaxInt)
		ne := withoutEmpty(cov)
		if got := LiteralFloor(ne, math.MaxInt); got != floor {
			t.Fatalf("floor %d with empty cubes, %d without: %v", floor, got, cov)
		}
		if lits := FactorLits(ne); floor > lits {
			t.Fatalf("floor %d > FactorLits %d of %v", floor, lits, ne)
		}
		if lits := FactorLits(mini.Minimize(ne, mini.Options{})); floor > lits {
			t.Fatalf("floor %d > FactorLits %d of the minimized %v", floor, lits, ne)
		}
		if lits := FactorLits(mini.Minimize(ne.Complement(), mini.Options{})); floor > lits {
			t.Fatalf("floor %d > FactorLits %d of the minimized complement of %v", floor, lits, ne)
		}
		if cov.NumVars() <= 8 {
			if want := bruteFloor(ne); floor != want {
				t.Fatalf("floor %d, brute force %d: %v", floor, want, ne)
			}
		}
		for target := 0; target <= floor+1; target++ {
			got := LiteralFloor(cov, target)
			if got > floor || got < min(target, floor) {
				t.Fatalf("LiteralFloor(target %d) = %d, full floor %d: %v", target, got, floor, cov)
			}
		}
	})
}

// TestLiteralFloorExamples pins the floor on small functions: a binate
// XOR, unate sums and products, a variable the cover names but the
// function ignores, the constants, and a cube over a variable past the
// simulated ones, which the floor holds at 0 and never counts.
func TestLiteralFloorExamples(t *testing.T) {
	for _, tc := range []struct {
		cover string
		n     int
		want  int
	}{
		{"ab' + a'b", 2, 4},
		{"ab + ac", 3, 3},
		{"a'b' + c", 3, 3},
		{"ab + ab'", 2, 1},      // = a: b is named but ignored
		{"a + a'", 1, 0},        // constant 1
		{"", 3, 0},              // constant 0
		{"ab + a'c + bc", 3, 4}, // consensus bc is redundant: a binate, b, c
	} {
		f := cube.ParseCover(tc.n, tc.cover)
		if got := LiteralFloor(f, math.MaxInt); got != tc.want {
			t.Errorf("LiteralFloor(%q) = %d, want %d", tc.cover, got, tc.want)
		}
	}
	wide := cube.NewCover(floorVars + 2)
	c := cube.New(floorVars + 2)
	c.Set(0, cube.Pos)
	c.Set(floorVars+1, cube.Neg)
	wide.Add(c)
	if got := LiteralFloor(wide, math.MaxInt); got != 1 {
		t.Errorf("LiteralFloor(x0·x%d') = %d, want 1 (only x0 simulated)", floorVars+1, got)
	}
}

// TestLiteralFloorAllocatesNothing holds LiteralFloor to its hotpath
// annotation on a 20-variable cover.
func TestLiteralFloorAllocatesNothing(t *testing.T) {
	f := spread(cube.ParseCover(10, "ab'c + a'bd + ce'f + b'df' + g'hij + a'j"), 20, 2)
	if allocs := testing.AllocsPerRun(100, func() { LiteralFloor(f, math.MaxInt) }); allocs != 0 {
		t.Errorf("LiteralFloor allocated %.0f times", allocs)
	}
}
