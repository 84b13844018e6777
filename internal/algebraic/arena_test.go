package algebraic

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cube"
)

// decodeCovers reads the fuzz targets' input: byte 0 gives the variable
// count n = 1 + b%70, so covers span one to three words and fall on both
// sides of Cube.String's 26-variable naming switch. Every later byte edits
// the current cube of the current cover: 0xFF closes the cube, 0xFE
// empties it at the variable set last (variable 0 if none), 0xFD closes
// the cover and starts the next, and any other byte b sets variable
// (b>>1)%n to Pos when b is odd and to Neg when it is even. A cube with no
// literal is the universal cube; empty and duplicate cubes are kept, as
// covers built without Cover.Add may hold them. Each cover takes at most
// 24 cubes.
func decodeCovers(data []byte, count int) []cube.Cover {
	n := 1
	if len(data) > 0 {
		n = 1 + int(data[0])%70
		data = data[1:]
	}
	out := make([]cube.Cover, count)
	for i := range out {
		out[i] = cube.NewCover(n)
	}
	k := 0
	var c cube.Cube
	open, last := false, 0
	flush := func() {
		if open && len(out[k].Cubes) < 24 {
			out[k].Cubes = append(out[k].Cubes, c)
		}
		open = false
	}
	for _, b := range data {
		switch b {
		case 0xFF:
			if !open {
				c, open = cube.New(n), true
			}
			flush()
			continue
		case 0xFD:
			flush()
			if k++; k == count {
				return out
			}
			continue
		}
		if !open {
			c, open, last = cube.New(n), true, 0
		}
		if b == 0xFE {
			c.Set(last, cube.Empty)
			continue
		}
		last = int(b>>1) % n
		p := cube.Neg
		if b&1 == 1 {
			p = cube.Pos
		}
		c.Set(last, p)
	}
	flush()
	return out
}

// encodeCovers is decodeCovers' inverse for covers of nonempty cubes over
// n ≤ 70 variables: the seed builder.
func encodeCovers(n int, covers ...cube.Cover) []byte {
	out := []byte{byte(n - 1)}
	for i, f := range covers {
		if i > 0 {
			out = append(out, 0xFD)
		}
		for _, c := range f.Cubes {
			for v := 0; v < n; v++ {
				switch c.Get(v) {
				case cube.Pos:
					out = append(out, byte(v<<1|1))
				case cube.Neg:
					out = append(out, byte(v<<1))
				}
			}
			out = append(out, 0xFF)
		}
	}
	return out
}

// spread moves f's variable v to v*stride in an n-variable space, so a
// small cover's structure reaches multi-word cubes.
func spread(f cube.Cover, n, stride int) cube.Cover {
	g := cube.NewCover(n)
	for _, c := range f.Cubes {
		d := cube.New(n)
		for v := 0; v < c.NumVars(); v++ {
			if p := c.Get(v); p != cube.Free {
				d.Set(v*stride, p)
			}
		}
		g.Cubes = append(g.Cubes, d)
	}
	return g
}

// withoutEmpty drops the empty cubes of f, as Cover.Add would have.
func withoutEmpty(f cube.Cover) cube.Cover {
	g := cube.NewCover(f.NumVars())
	for _, c := range f.Cubes {
		g.Add(c)
	}
	return g
}

// sameCubes fails unless got and want hold equal cubes in the same order.
func sameCubes(t *testing.T, what string, got, want cube.Cover) {
	t.Helper()
	if got.NumVars() != want.NumVars() || !sameCover(got, want) {
		t.Fatalf("%s: %d cubes over %d vars %v, want %d over %d %v", what,
			len(got.Cubes), got.NumVars(), got, len(want.Cubes), want.NumVars(), want)
	}
}

// kernelSeeds are the fuzz seeds shared by both targets: the benchmark
// covers, the same structure spread over two and three words, a
// duplicate-heavy cover, and the textbook kernel example.
func kernelSeeds() [][]byte {
	bench := cube.ParseCover(8, "ace + acf + ade + adf + bce + bcf + bde + bdf + gh")
	ab := cube.ParseCover(8, "a + b")
	dup := cube.ParseCover(5, "ab + ab + abc + a'c + a'c + b'c + b'c + d")
	return [][]byte{
		encodeCovers(8, bench, ab),
		encodeCovers(40, spread(bench, 40, 5), spread(ab, 40, 5)),
		encodeCovers(70, spread(bench, 70, 9), spread(ab, 70, 9)),
		encodeCovers(5, dup, cube.ParseCover(5, "a' + b'")),
		encodeCovers(7, cube.ParseCover(7, "adf + aef + bdf + bef + cdf + cef + g"), cube.ParseCover(7, "d + e")),
	}
}

// FuzzFactorLits checks the arena FactorLits against the reference
// recursion on every cover, and against Factor(f).Lits() on covers
// without empty cubes, where FactorLits' doc comment promises equality.
// It also checks that the input cover is left unwritten.
func FuzzFactorLits(f *testing.F) {
	for _, s := range kernelSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cov := decodeCovers(data, 1)[0]
		before := cov.Clone()
		got := FactorLits(cov)
		sameCubes(t, "input after FactorLits", cov, before)
		if want := referenceFactorLits(cov); got != want {
			t.Fatalf("FactorLits(%v) = %d, reference %d", cov, got, want)
		}
		ne := withoutEmpty(cov)
		if got, want := FactorLits(ne), Factor(ne).Lits(); got != want {
			t.Fatalf("FactorLits(%v) = %d, Factor(f).Lits() = %d", ne, got, want)
		}
	})
}

// FuzzWeakDivide checks the arena WeakDivide against the map-based
// reference: the same quotient in Canon order and the same remainder in
// f's order, cube for cube, with both inputs left unwritten.
func FuzzWeakDivide(f *testing.F) {
	for _, s := range kernelSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cs := decodeCovers(data, 2)
		fc, dc := cs[0], cs[1]
		fb, db := fc.Clone(), dc.Clone()
		q, r := WeakDivide(fc, dc)
		sameCubes(t, "f after WeakDivide", fc, fb)
		sameCubes(t, "d after WeakDivide", dc, db)
		wq, wr := referenceWeakDivide(fc, dc)
		sameCubes(t, "quotient", q, wq)
		sameCubes(t, "remainder", r, wr)
	})
}

// TestWeakDivideEmptyQuotientKey pins the empty-cube key rule: the two
// empty cubes of f yield two different empty quotients by a, which share
// one key, so q holds only the last of them and f's empty cubes stay in r.
func TestWeakDivideEmptyQuotientKey(t *testing.T) {
	fc := cube.ParseCover(4, "ab + ac")
	fc.Cubes[0].Set(1, cube.Empty)
	fc.Cubes[1].Set(2, cube.Empty)
	q, r := WeakDivide(fc, cube.ParseCover(4, "a"))
	want := cube.New(4)
	want.Set(2, cube.Empty)
	if q.NumCubes() != 1 || !q.Cubes[0].Equal(want) {
		t.Fatalf("quotient %v, want the one empty cube c⁰ from f's last cube", q.Cubes)
	}
	sameCubes(t, "remainder", r, fc)
}

// sparseCover draws a cover of up to 12 cubes over n variables, literals
// from a small pool so cubes share them.
func sparseCover(rng *rand.Rand, n int) cube.Cover {
	f := cube.NewCover(n)
	for i := 1 + rng.Intn(12); i > 0; i-- {
		c := cube.New(n)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			c.Set(rng.Intn(n), cube.Phase(1+rng.Intn(2)))
		}
		f.Cubes = append(f.Cubes, c)
	}
	return f
}

// TestKernelConcurrentCallers runs FactorLits and WeakDivide from several
// goroutines over shared covers — as phase-B workers do on the live
// network's covers — and checks every result against the serial one. The
// pool gives each call an arena of its own; under -race this also checks
// that no call writes a shared cover.
func TestKernelConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type job struct {
		f, d cube.Cover
		lits int
		q, r cube.Cover
	}
	var jobs []job
	for i := 0; i < 200; i++ {
		n := []int{6, 30, 40}[i%3]
		f, d := sparseCover(rng, n), sparseCover(rng, n)
		if k, ok := Level0Kernel(f); ok && i%2 == 0 {
			d = k // a divisor that divides f
		}
		q, r := WeakDivide(f, d)
		jobs = append(jobs, job{f: f, d: d, lits: FactorLits(f), q: q, r: r})
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				for i := range jobs {
					j := &jobs[(i+w*37)%len(jobs)]
					if got := FactorLits(j.f); got != j.lits {
						t.Errorf("FactorLits(%v) = %d concurrently, %d serially", j.f, got, j.lits)
						return
					}
					q, r := WeakDivide(j.f, j.d)
					if !sameCover(q, j.q) || !sameCover(r, j.r) {
						t.Errorf("WeakDivide(%v, %v) = %v, %v concurrently, %v, %v serially", j.f, j.d, q, r, j.q, j.r)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// sameCover reports whether f and g hold equal cubes in the same order.
func sameCover(f, g cube.Cover) bool {
	if len(f.Cubes) != len(g.Cubes) {
		return false
	}
	for i := range f.Cubes {
		if !f.Cubes[i].Equal(g.Cubes[i]) {
			return false
		}
	}
	return true
}

// TestKernelWarmArenaAllocatesNothing locks the allocation claim of the
// arena recursion: once an arena has grown, a FactorLits frame and a weak
// division (quotient and remainder spans) allocate nothing. It runs on a
// private arena, because the pool is free to drop arenas (and does at
// random under -race).
func TestKernelWarmArenaAllocatesNothing(t *testing.T) {
	f := cube.ParseCover(8, "ace + acf + ade + adf + bce + bcf + bde + bdf + gh")
	d := cube.ParseCover(8, "c + d")
	a := new(kernelArena)
	factor := func() {
		m := a.mark()
		a.factorLits(a.push(f.Cubes), 0)
		a.release(m)
	}
	divide := func() {
		m := a.mark()
		fs, ds := a.push(f.Cubes), a.push(d.Cubes)
		if q := a.weakQuotient(fs, ds); q.len() != 4 || a.remainder(fs, q, ds).len() != 1 {
			t.Fatal("weak division regressed")
		}
		a.release(m)
	}
	factor()
	divide()
	if allocs := testing.AllocsPerRun(20, factor); allocs != 0 {
		t.Errorf("a warmed FactorLits frame allocated %.0f times", allocs)
	}
	if allocs := testing.AllocsPerRun(20, divide); allocs != 0 {
		t.Errorf("a warmed weak division allocated %.0f times", allocs)
	}
}
