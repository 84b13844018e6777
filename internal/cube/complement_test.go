package cube

import (
	"math"
	"math/rand"
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

// rawCubes returns the recursion's output in leaf order, before sorting:
// windows of cx's words, valid while cx is not run again. Tests run it on
// a complementer of their own, never on one the pool can hand to another
// call.
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
// reference recursion: the same cubes in the same order, the input left
// unwritten, a result that shares no words with the pooled buffers, a raw
// recursion output free of contained and duplicate cubes (the reason the
// SCC pass could go), and ComplementAtMost accepting exactly the budgets
// the reference's cube count fits.
func FuzzComplement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0b1001, 0b0110, 0b1111})
	f.Add([]byte{241, 0b1110, 0b1011}) // a lone empty cube: constant 1
	f.Fuzz(func(t *testing.T, data []byte) {
		cov := decodeCover(data)
		in := cov.Clone()
		want := referenceComplement(withoutEmpty(cov))
		got := cov.Complement()
		sameCubes(t, "Complement", got, want)
		sameCubes(t, "input after Complement", cov, in)

		// Scribble on the result, then complement again: a result aliasing
		// a pooled buffer would corrupt the next run, or be overwritten by it.
		for _, c := range got.Cubes {
			c.Set(0, Empty)
		}
		sameCubes(t, "Complement after writing the last result", cov.Complement(), want)
		for i, c := range got.Cubes {
			if c.Get(0) != Empty {
				t.Fatalf("the next run rewrote cube %d of an earlier result to %v", i, c)
			}
		}

		var cx complementer
		if !cx.complement(cov, math.MaxInt) {
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

// sparseCover draws one to maxCubes cubes over n variables, each variable
// a literal with probability 1/2, so unate covers and universal cubes occur.
func sparseCover(rng *rand.Rand, n, maxCubes int) Cover {
	f := NewCover(n)
	for k := 1 + rng.Intn(maxCubes); k > 0; k-- {
		c := New(n)
		for v := 0; v < n; v++ {
			switch rng.Intn(4) {
			case 0:
				c.Set(v, Pos)
			case 1:
				c.Set(v, Neg)
			}
		}
		f.Add(c)
	}
	return f
}

// TestTallyPicksMatchScans checks the literal tally's branching variables
// against the variable-major scans it replaced, on one- to three-word
// covers: mostBinateVarUnder under random restrictions and live sets, and
// splitVar against mostBinateVar with the most-frequent fallback. The
// complement of those covers must still match the reference cube for cube.
func TestTallyPicksMatchScans(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 2000; trial++ {
		f := sparseCover(rng, 1+rng.Intn(70), 12)
		n := f.NumVars()
		r := New(n)
		for v := 0; v < n; v++ {
			if rng.Intn(5) == 0 {
				r.Set(v, Phase(1+rng.Intn(2)))
			}
		}
		live := []uint64{uint64(rng.Int63()) & (1<<uint(len(f.Cubes)) - 1)}
		gv, gb := mostBinateVarUnder(f, r, live)
		wv, wb := mostBinateVarUnderRef(f, r, live)
		if gv != wv || gb != wb {
			t.Fatalf("mostBinateVarUnder(%v, %v, %b) = %d, %v; the scan gives %d, %v", f, r, live[0], gv, gb, wv, wb)
		}
		if len(f.Cubes) < 2 {
			continue
		}
		want, binate := mostBinateVar(f)
		if !binate {
			want = -1
			for u, bc := 0, -1; u < n; u++ {
				k := 0
				for _, c := range f.Cubes {
					if c.ContainsVar(u) {
						k++
					}
				}
				if k > bc {
					want, bc = u, k
				}
			}
		}
		universal := false
		for _, c := range f.Cubes {
			universal = universal || c.IsUniverse()
		}
		if !universal {
			if got := splitVar(f); got != want {
				t.Fatalf("splitVar(%v) = %d, the scan gives %d", f, got, want)
			}
		}
		if trial%10 == 0 {
			sameCubes(t, "Complement", f.Complement(), referenceComplement(f))
		}
	}
}

// TestComplementAllocatesOnlyResult locks the allocation claim of the
// recursion's buffers: once they have grown, a complement allocates only
// its copied-out header slice and word block, and a rejected one nothing.
// It runs on a private complementer, because the pool is free to drop
// complementers (and does at random under -race); BenchmarkComplement
// measures the pooled call.
func TestComplementAllocatesOnlyResult(t *testing.T) {
	small := ParseCover(10, "abc + de'f + ghi' + jb' + ac'e + fg'j")
	wide := wideCover()
	var cx complementer
	for _, c := range []struct {
		name string
		f    Cover
	}{{"sop6", small}, {"wide_pos", wide}} {
		run := func() {
			if !cx.complement(c.f, math.MaxInt) || len(cx.sorted()) == 0 {
				t.Fatalf("%s: complement regressed", c.name)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs > 2 {
			t.Errorf("%s: a warmed complement allocated %.0f times, want at most 2", c.name, allocs)
		}
	}
	reject := func() {
		if cx.complement(wide, 24) {
			t.Fatal("a 24-cube budget accepted a 4374-cube complement")
		}
	}
	reject()
	if allocs := testing.AllocsPerRun(20, reject); allocs != 0 {
		t.Errorf("a rejected complement allocated %.0f times", allocs)
	}
}
