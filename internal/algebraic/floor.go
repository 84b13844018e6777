package algebraic

import "repro/internal/cube"

// floorWords is how many 64-bit pattern words LiteralFloor simulates: 256
// patterns, which is every assignment of up to 8 variables.
const floorWords = 4

// floorVars bounds the variables LiteralFloor simulates. A variable at or
// past it is 0 in every pattern, so it is never witnessed, and the patterns
// stay real assignments of the whole space.
const floorVars = 64

// floorWord is word w of variable v's pattern column in an n-variable
// space. Up to 8 variables the columns enumerate every assignment (pattern
// p gives v the value of bit v of p); beyond, word w of v is the splitmix64
// finalizer of 4v + w, so every call sees the same fixed patterns.
func floorWord(n, v, w int) uint64 {
	if n <= 8 {
		if v >= 6 {
			// Bits 6 and 7 of the pattern index are bits 0 and 1 of w.
			return -uint64(w >> (v - 6) & 1)
		}
		return exhaustiveColumns[v]
	}
	z := uint64(v)*floorWords + uint64(w) + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// exhaustiveColumns[v] has bit b set when bit v of b is set, for v < 6.
var exhaustiveColumns = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// LiteralFloor returns a lower bound on the literal count of every
// factored form of f's function and of its complement. It stops counting
// once the count reaches target, so a result ≥ target says only that the
// bound is at least target. The bound is one literal for every variable
// the function depends on and one more for every variable it is binate
// in: a form needs a leaf of every variable its function depends on, and
// a form whose leaves of v are all positive (all negative) is positive
// (negative) unate in v, because AND and OR are monotone. Dependence and
// binateness are the same for a function and its complement. FactorLits
// factors algebraically, keeping every literal of its cover, so
// FactorLits(g) ≥ LiteralFloor(g) for every cover g of f or of f̄.
//
// The floor counts only what 256 patterns witness: v counts once when
// some pattern p has f(p[v:=0]) ≠ f(p[v:=1]), and twice when such patterns
// exist in both directions. Each witness is a pair of real assignments, so
// the bound holds for any patterns. With at most 8 variables the patterns
// are every assignment and the floor is exact; beyond, they are fixed
// pseudo-random words (see floorWord). Empty cubes are ignored.
//
// One pass over the cubes ORs each cube's value into, per variable v, the
// patterns where a cube without a v literal holds (base), and where a cube
// with a positive (negative) v literal holds once v is set to 1 (0): f is
// base|hi with v:=1 and base|lo with v:=0. The call allocates nothing.
//
//bdslint:hotpath
func LiteralFloor(f cube.Cover, target int) int {
	space := f.NumVars()
	n := min(space, floorVars)
	var cols, base, hi, lo [floorVars][floorWords]uint64
	for v := 0; v < n; v++ {
		for w := range cols[v] {
			cols[v][w] = floorWord(space, v, w)
		}
	}
	// The current cube's literals (variable and phase) and the suffix ANDs
	// of their pattern words, for the per-literal rests.
	var lits [floorVars]int
	var neg [floorVars]uint64
	var suffix [floorVars + 1][floorWords]uint64
	for _, c := range f.Cubes {
		k, live := 0, true
		var in uint64
		for v := 0; v < space && live; v++ {
			switch p := c.Get(v); {
			case p == cube.Free:
			case p == cube.Empty || v >= n && p == cube.Pos:
				live = false
			case v < n:
				lits[k], neg[k] = v, 0
				if p == cube.Neg {
					neg[k] = ^uint64(0)
				}
				in |= 1 << v
				k++
			}
		}
		if !live {
			continue
		}
		suffix[k] = [floorWords]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		for i := k - 1; i >= 0; i-- {
			for w := range suffix[i] {
				suffix[i][w] = suffix[i+1][w] & (cols[lits[i]][w] ^ neg[i])
			}
		}
		val, prefix := suffix[0], suffix[k]
		for i := 0; i < k; i++ {
			acc := &hi[lits[i]]
			if neg[i] != 0 {
				acc = &lo[lits[i]]
			}
			for w := range acc {
				acc[w] |= prefix[w] & suffix[i+1][w]
				prefix[w] &= cols[lits[i]][w] ^ neg[i]
			}
		}
		for v := 0; v < n; v++ {
			if in>>v&1 == 0 {
				for w := range val {
					base[v][w] |= val[w]
				}
			}
		}
	}
	floor := 0
	for v := 0; v < n && floor < target; v++ {
		var up, down uint64
		for w := 0; w < floorWords; w++ {
			one, zero := base[v][w]|hi[v][w], base[v][w]|lo[v][w]
			up |= one &^ zero
			down |= zero &^ one
		}
		if up != 0 {
			floor++
		}
		if down != 0 {
			floor++
		}
	}
	return floor
}
