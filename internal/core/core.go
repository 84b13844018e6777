// Package core implements the paper's contribution: Boolean division and
// substitution by redundancy addition and removal (RAR).
//
// The sum-of-subproducts (SOS) property (Lemma 1) makes a specially shaped
// restructuring known-redundant a priori: if divisor d is an SOS of the
// dividend's non-remainder part f₁, then f = f₁·d + r holds structurally.
// Redundancy removal — implication-based untestability proofs from
// internal/atpg — then deletes literals from f₁, yielding a Boolean quotient
// that algebraic division cannot reach. Extended division decomposes the
// divisor itself, choosing a core divisor by letting every dividend wire
// vote through fault implications (Table I) and intersecting votes
// (the paper's maximal-clique formulation, Fig. 4). The dual
// product-of-subsums (POS) property (Lemma 2) gives product-of-sum-form
// substitution via complement covers.
package core

import (
	"repro/internal/cube"
)

// Config selects the paper's three experimental configurations.
type Config int

const (
	// Basic: basic division only — the divisor is used as-is.
	Basic Config = iota
	// Extended: divisor decomposition with region-local implications.
	Extended
	// ExtendedGDC: extended division with global implications and
	// recursive learning, harvesting global internal don't cares.
	ExtendedGDC
)

// String names the configuration as in the paper's tables.
func (c Config) String() string {
	switch c {
	case Basic:
		return "basic"
	case Extended:
		return "ext"
	default:
		return "ext-gdc"
	}
}

// IsSOS reports whether g is a sum-of-subproducts of f: every cube of f is
// contained by at least one cube of g (Section III-A). By Lemma 1 this
// guarantees f·g = f, with every cube of f surviving structurally.
func IsSOS(g, f cube.Cover) bool {
	for _, cf := range f.Cubes {
		if !anyCubeContains(g, cf) {
			return false
		}
	}
	return true
}

// anyCubeContains reports whether some single cube of g contains c.
func anyCubeContains(g cube.Cover, c cube.Cube) bool {
	for _, k := range g.Cubes {
		if k.Contains(c) {
			return true
		}
	}
	return false
}

// SplitSOS partitions f's cubes for division by d: quotientPart gets the
// cubes contained by some cube of d (so d is an SOS of quotientPart) and
// remainder gets the rest — the first step of basic division (Fig. 2(b)).
func SplitSOS(f, d cube.Cover) (quotientPart, remainder cube.Cover) {
	return splitSOS(f, d, nil, nil)
}

// splitSOS is SplitSOS listing the two parts' cubes in q[:0] and r[:0].
//
//bdslint:hotpath
func splitSOS(f, d cube.Cover, q, r []cube.Cube) (quotientPart, remainder cube.Cover) {
	n := f.NumVars()
	quotientPart, remainder = cube.NewCover(n), cube.NewCover(n)
	q, r = q[:0], r[:0]
	for _, c := range f.Cubes {
		if anyCubeContains(d, c) {
			q = append(q, c)
		} else {
			r = append(r, c)
		}
	}
	quotientPart.Cubes, remainder.Cubes = q, r
	return quotientPart, remainder
}

// IsPOS reports whether g is a product-of-subsums of f when both are viewed
// as products of sum terms. With covers representing the COMPLEMENT
// functions (each complement cube is a sum term of the original, by De
// Morgan), the condition is exactly IsSOS on the complements; this helper
// exists to keep call sites readable.
func IsPOS(gCompl, fCompl cube.Cover) bool { return IsSOS(gCompl, fCompl) }
