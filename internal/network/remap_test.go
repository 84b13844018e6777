package network

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cube"
)

// remapPerLiteral is the reference remap: it resolves the destination of
// every literal of every cube by name, through Cube.Lits.
func remapPerLiteral(f cube.Cover, fanins []string, dst []string) cube.Cover {
	n := len(dst)
	out := cube.NewCover(n)
	for _, c := range f.Cubes {
		k := cube.New(n)
		for _, v := range c.Lits() {
			k.Set(sigIndex(dst, fanins[v]), c.Get(v))
		}
		out.Cubes = append(out.Cubes, k)
	}
	return out
}

// TestRemapMatchesPerLiteralReference checks remap and RemapCover against
// the per-literal reference on random covers, including covers wider than
// one cube word and empty covers, into destinations that permute the
// fanins, extend them with fresh signals, or omit fanins no cube uses
// (remap only: RemapCover requires every fanin and must panic instead).
func TestRemapMatchesPerLiteralReference(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 2000; trial++ {
		nv := 1 + r.Intn(40)
		fanins := make([]string, nv)
		for i := range fanins {
			fanins[i] = fmt.Sprintf("s%d", i)
		}
		used := make([]bool, nv)
		cov := cube.NewCover(nv)
		for j, nc := 0, r.Intn(6); j < nc; j++ {
			c := cube.New(nv)
			for v := 0; v < nv; v++ {
				switch r.Intn(4) {
				case 0:
					c.Set(v, cube.Pos)
					used[v] = true
				case 1:
					c.Set(v, cube.Neg)
					used[v] = true
				}
			}
			cov.Cubes = append(cov.Cubes, c)
		}

		var dst []string
		omitted := false
		for v, s := range fanins {
			if !used[v] && r.Intn(3) == 0 {
				omitted = true
				continue
			}
			dst = append(dst, s)
		}
		for i, extra := 0, r.Intn(4); i < extra; i++ {
			dst = append(dst, fmt.Sprintf("x%d", i))
		}
		r.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })

		want := remapPerLiteral(cov, fanins, dst)
		if got := remap(cov, fanins, dst); !sameCover(got, want) {
			t.Fatalf("trial %d: remap %v, reference %v (fanins %v, dst %v)", trial, got, want, fanins, dst)
		}
		if omitted {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("trial %d: RemapCover accepted a destination missing a fanin", trial)
					}
				}()
				RemapCover(cov, fanins, dst)
			}()
		} else if got := RemapCover(cov, fanins, dst); !sameCover(got, want) {
			t.Fatalf("trial %d: RemapCover %v, reference %v", trial, got, want)
		}
	}
}

// sameCover reports whether a and b have the same variable count and the
// same cubes in the same order.
func sameCover(a, b cube.Cover) bool {
	if a.NumVars() != b.NumVars() || len(a.Cubes) != len(b.Cubes) {
		return false
	}
	for i := range a.Cubes {
		if !a.Cubes[i].Equal(b.Cubes[i]) {
			return false
		}
	}
	return true
}
