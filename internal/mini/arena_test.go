package mini

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cube"
)

// decodeMinimize reads a minimization problem from fuzz bytes. The first
// byte sets the variable count n = 1 + b%70, so cubes span one to three
// words. The second sets the options: bit 0 a don't-care cover, bit 1
// SingleExpand, bits 2–3 MaxPasses (0, the default, to 3). The rest are
// cubes, one byte per literal: 0xFF closes the current cube (alone, it
// adds the universal cube), 0xFD closes it and moves on to the DC cover,
// 0xFE empties the last variable set, and any other byte b sets variable
// (b>>1)%n to Pos when b is odd and to Neg when it is even. Empty and
// duplicate cubes are kept, as covers built without Cover.Add may hold
// them. Each cover takes at most 16 cubes.
func decodeMinimize(data []byte) (f, dc cube.Cover, opt Options) {
	n, flags := 1, byte(0)
	if len(data) > 0 {
		n, data = 1+int(data[0])%70, data[1:]
	}
	if len(data) > 0 {
		flags, data = data[0], data[1:]
	}
	covers := [2]cube.Cover{cube.NewCover(n), cube.NewCover(n)}
	k := 0
	var c cube.Cube
	open, last := false, 0
	flush := func() {
		if open && len(covers[k].Cubes) < 16 {
			covers[k].Cubes = append(covers[k].Cubes, c)
		}
		open = false
	}
	for _, b := range data {
		if b == 0xFF {
			if !open {
				c, open = cube.New(n), true
			}
			flush()
			continue
		}
		if b == 0xFD {
			flush()
			if k++; k == len(covers) {
				break
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
	if k < len(covers) {
		flush()
	}
	opt = Options{SingleExpand: flags&2 != 0, MaxPasses: int(flags>>2) & 3}
	if flags&1 != 0 {
		opt.DC = covers[1]
	}
	return covers[0], covers[1], opt
}

// sameCover fails t unless got and want hold equal cubes in the same order.
func sameCover(t *testing.T, what string, got, want cube.Cover) {
	t.Helper()
	if got.NumVars() != want.NumVars() || len(got.Cubes) != len(want.Cubes) {
		t.Fatalf("%s: %v (%d cubes over %d vars), want %v (%d over %d)", what, got, len(got.Cubes), got.NumVars(), want, len(want.Cubes), want.NumVars())
	}
	for i := range want.Cubes {
		if !got.Cubes[i].Equal(want.Cubes[i]) {
			t.Fatalf("%s: cube %d is %v, want %v", what, i, got.Cubes[i], want.Cubes[i])
		}
	}
}

// FuzzMinimize checks the arena minimizer against the pre-arena reference:
// Minimize, Expand, Irredundant and Reduce return the reference's cubes in
// the reference's order, write neither f nor DC, and return covers that
// share no words with their inputs or with the pooled scratch.
func FuzzMinimize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 3, 0xFF, 1, 2, 0xFF, 0, 3, 0xFF})                    // ab + ab' + a'b
	f.Add([]byte{1, 1, 1, 3, 0xFF, 0xFD, 1, 2})                                // ab with dc ab'
	f.Add([]byte{3, 0, 1, 3, 0xFF, 0, 5, 0xFF, 3, 5, 0xFF})                    // ab + a'c + bc
	f.Add([]byte{69, 0, 1, 139, 0xFF, 1, 138, 0xFF, 0xFF, 1, 139, 0xFF})       // 70 vars, universal and duplicate cubes
	f.Add([]byte{40, 14, 5, 70, 0xFE, 0xFF, 5, 71, 0xFF, 4, 70, 0xFF})         // MaxPasses 3, SingleExpand, an empty cube
	f.Add([]byte{9, 5, 1, 3, 5, 0xFF, 7, 9, 0xFF, 0xFD, 0, 2, 0xFF, 11, 0xFF}) // DC, MaxPasses 1
	f.Fuzz(func(t *testing.T, data []byte) {
		fc, dc, opt := decodeMinimize(data)
		fIn, dcIn := fc.Clone(), dc.Clone()
		want := referenceMinimize(fc, opt)
		got := Minimize(fc, opt)
		sameCover(t, "Minimize", got, want)

		steps := []struct {
			name      string
			arena, rf func(f, dc cube.Cover) cube.Cover
		}{
			{"Expand", Expand, referenceExpand},
			{"Irredundant", Irredundant, referenceIrredundant},
			{"Reduce", Reduce, referenceReduce},
		}
		for _, s := range steps {
			sameCover(t, s.name, s.arena(fc, dc), s.rf(fc, dc))
		}
		sameCover(t, "f after minimizing", fc, fIn)
		sameCover(t, "DC after minimizing", dc, dcIn)

		// Scribble on the result, then minimize again: a result aliasing f,
		// DC or the pool would show in the inputs or the next result, or be
		// overwritten by the next run.
		for _, c := range got.Cubes {
			c.Set(0, cube.Empty)
		}
		sameCover(t, "Minimize after writing the last result", Minimize(fc, opt), want)
		sameCover(t, "f after writing a result", fc, fIn)
		sameCover(t, "DC after writing a result", dc, dcIn)
		for i, c := range got.Cubes {
			if c.Get(0) != cube.Empty {
				t.Fatalf("the next run rewrote cube %d of an earlier result to %v", i, c)
			}
		}
	})
}

// posFinal is shaped like POS division's final minimization: the minimized
// complement of a small SOP node function.
func posFinal() cube.Cover {
	return cube.ParseCover(10, "abc + de'f + ghi' + jb' + ac'e + fg'j").Complement()
}

// TestMinimizeWarmAllocatesOnlyResult locks the allocation claim of the
// arena loop: once an arena has grown, Minimize's loop allocates only the
// copied-out result, one header slice and one word block. It runs on a
// private arena, because the pool is free to drop arenas (and does at
// random under -race); BenchmarkMinimize measures the pooled call.
func TestMinimizeWarmAllocatesOnlyResult(t *testing.T) {
	f := posFinal()
	dc := cube.ParseCover(10, "a'b'c'")
	m := new(minArena)
	for _, c := range []struct {
		dc     cube.Cover
		single bool
	}{{cube.NewCover(10), false}, {dc, false}, {cube.NewCover(10), true}} {
		run := func() {
			m.begin(f)
			m.copyOut(m.minimize(m.push(f.Cubes), c.dc.Cubes, 4, c.single))
			m.end()
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs > 2 {
			t.Errorf("a warmed minimization (DC %v, SingleExpand %v) allocated %.0f times, want at most 2", c.dc, c.single, allocs)
		}
	}
}

// TestKernelsConcurrentCallers runs Minimize and ComplementAtMost from six
// goroutines on shared covers: each call must take pooled scratch of its
// own, read its shared input without writing it, and return what the
// serial call returned.
func TestKernelsConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type job struct {
		f, dc, min, minDC, compl cube.Cover
		complOK                  bool
	}
	var jobs []job
	for i := 0; i < 120; i++ {
		n := []int{5, 12, 40}[i%3]
		j := job{f: randomCover(rng, n, 10), dc: randomCover(rng, n, 3)}
		j.min = Minimize(j.f, Options{})
		j.minDC = Minimize(j.f, Options{DC: j.dc})
		j.compl, j.complOK = j.f.ComplementAtMost(24)
		jobs = append(jobs, j)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				for i := range jobs {
					j := &jobs[(i+w*37)%len(jobs)]
					c, ok := j.f.ComplementAtMost(24)
					if !equalCubes(Minimize(j.f, Options{}), j.min) ||
						!equalCubes(Minimize(j.f, Options{DC: j.dc}), j.minDC) ||
						ok != j.complOK || !equalCubes(c, j.compl) {
						errs <- "concurrent result differs from the serial one on " + j.f.String()
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// equalCubes reports whether f and g hold equal cubes in the same order.
func equalCubes(f, g cube.Cover) bool {
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
