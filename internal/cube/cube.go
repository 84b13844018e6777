// Package cube implements product terms (cubes) and sum-of-product covers in
// the positional notation used by two-level logic minimizers: each variable
// occupies two bits of a machine word. It is the foundation for the
// minimizer (internal/mini), the algebraic engine (internal/algebraic) and
// the Boolean division core (internal/core).
//
// Encoding per variable:
//
//	01  variable appears complemented (the cube requires it to be 0)
//	10  variable appears positive (the cube requires it to be 1)
//	11  variable absent (don't care)
//	00  empty — the cube contains no minterms
//
// A Cube denotes the set of minterms satisfying all its literals; a Cover is
// an OR of cubes. Containment follows set semantics: cube p contains cube q
// iff every minterm of q is a minterm of p, which in positional notation is
// a bitwise superset test per variable. Equivalently, lits(p) ⊆ lits(q).
package cube

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Phase of a literal within a cube.
type Phase uint8

const (
	// Neg means the variable appears complemented.
	Neg Phase = 0b01
	// Pos means the variable appears un-complemented.
	Pos Phase = 0b10
	// Free means the variable does not appear.
	Free Phase = 0b11
	// Empty means the variable slot is contradictory; the cube is empty.
	Empty Phase = 0b00
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case Neg:
		return "neg"
	case Pos:
		return "pos"
	case Free:
		return "free"
	default:
		return "empty"
	}
}

// varsPerWord is the number of 2-bit variable slots in a uint64.
const varsPerWord = 32

// Cube is a product term over n variables in positional notation.
// The zero value is not usable; construct with New or Parse.
type Cube struct {
	w []uint64
	n int
}

// New returns the universal cube (all variables free) over n variables.
func New(n int) Cube {
	if n < 0 {
		panic("cube: negative variable count")
	}
	nw := (n + varsPerWord - 1) / varsPerWord
	w := make([]uint64, nw)
	for i := range w {
		w[i] = ^uint64(0)
	}
	// Mask tail beyond n to the Free pattern so Equal and popcounts are exact.
	if r := n % varsPerWord; r != 0 && nw > 0 {
		w[nw-1] = (uint64(1) << (2 * uint(r))) - 1
	}
	return Cube{w: w, n: n}
}

// NumVars returns the size of the variable space the cube lives in.
func (c Cube) NumVars() int { return c.n }

// Clone returns an independent copy of c.
func (c Cube) Clone() Cube {
	w := make([]uint64, len(c.w))
	copy(w, c.w)
	return Cube{w: w, n: c.n}
}

// CloneCubes returns independent copies of cs, in order, in one fresh
// header slice whose cubes share one fresh word block: two allocations
// however many cubes there are, and none for an empty cs. Each cube's
// words are a capacity-limited window of the block. The kernels that
// build their covers in pooled scratch copy their results out with it.
func CloneCubes(cs []Cube) []Cube {
	if len(cs) == 0 {
		return nil
	}
	nw := len(cs[0].w)
	out := make([]Cube, len(cs))
	words := make([]uint64, len(cs)*nw)
	for i, c := range cs {
		w := words[i*nw : (i+1)*nw : (i+1)*nw]
		copy(w, c.w)
		out[i] = Cube{w: w, n: c.n}
	}
	return out
}

// Get returns the phase of variable v in c.
func (c Cube) Get(v int) Phase {
	return Phase(c.w[v/varsPerWord] >> (2 * uint(v%varsPerWord)) & 0b11)
}

// Set assigns phase p to variable v, in place.
func (c Cube) Set(v int, p Phase) {
	i, s := v/varsPerWord, 2*uint(v%varsPerWord)
	c.w[i] = c.w[i]&^(0b11<<s) | uint64(p)<<s
}

// With returns a copy of c with variable v set to phase p.
func (c Cube) With(v int, p Phase) Cube {
	d := c.Clone()
	d.Set(v, p)
	return d
}

// IsEmpty reports whether the cube denotes the empty set, i.e. some
// variable slot is 00.
func (c Cube) IsEmpty() bool {
	for i, w := range c.w {
		m := fullMask(c.n, i)
		// A slot is empty iff both of its bits are 0. Detect any such slot.
		lo := w & 0x5555555555555555
		hi := (w >> 1) & 0x5555555555555555
		if (lo|hi)&(m&0x5555555555555555) != m&0x5555555555555555 {
			return true
		}
	}
	return false
}

// IsUniverse reports whether every variable is free (the tautology cube).
func (c Cube) IsUniverse() bool {
	for i, w := range c.w {
		if w != fullMask(c.n, i) {
			return false
		}
	}
	return true
}

// fullMask returns the all-Free bit pattern for word i of an n-variable cube.
func fullMask(n, i int) uint64 {
	lastFull := n / varsPerWord
	if i < lastFull {
		return ^uint64(0)
	}
	r := n % varsPerWord
	if i == lastFull && r != 0 {
		return (uint64(1) << (2 * uint(r))) - 1
	}
	return 0
}

// NumLits returns the number of literals (variables not Free and not Empty)
// in the cube.
func (c Cube) NumLits() int {
	lits := 0
	for i, w := range c.w {
		m := fullMask(c.n, i)
		w &= m
		lo := w & 0x5555555555555555
		hi := (w >> 1) & 0x5555555555555555
		// A literal slot has exactly one of the two bits set.
		lits += bits.OnesCount64(lo ^ hi)
	}
	return lits
}

// Lits returns the variables that appear as literals, in ascending order.
func (c Cube) Lits() []int {
	var out []int
	for v := 0; v < c.n; v++ {
		if p := c.Get(v); p == Pos || p == Neg {
			out = append(out, v)
		}
	}
	return out
}

// Contains reports whether c contains d as a set of minterms: every minterm
// of d satisfies c. In positional notation this is a per-variable bitwise
// superset test. An empty d is contained in everything.
func (c Cube) Contains(d Cube) bool {
	if c.n != d.n {
		panic("cube: mismatched variable spaces")
	}
	if d.IsEmpty() {
		return true
	}
	for i := range c.w {
		if c.w[i]|d.w[i] != c.w[i] {
			return false
		}
	}
	return true
}

// Equal reports structural equality.
func (c Cube) Equal(d Cube) bool {
	if c.n != d.n {
		return false
	}
	for i := range c.w {
		if c.w[i] != d.w[i] {
			return false
		}
	}
	return true
}

// And returns the intersection of c and d (may be empty).
func (c Cube) And(d Cube) Cube {
	if c.n != d.n {
		panic("cube: mismatched variable spaces")
	}
	w := make([]uint64, len(c.w))
	for i := range w {
		w[i] = c.w[i] & d.w[i]
	}
	return Cube{w: w, n: c.n}
}

// Distance returns the number of variables in which c and d have disjoint
// phases (the intersection slot is Empty). Distance 0 means the cubes
// intersect; distance 1 means they are mergeable by consensus.
func (c Cube) Distance(d Cube) int {
	if c.n != d.n {
		panic("cube: mismatched variable spaces")
	}
	dist := 0
	for i := range c.w {
		w := c.w[i] & d.w[i] & fullMask(c.n, i)
		lo := w & 0x5555555555555555
		hi := (w >> 1) & 0x5555555555555555
		present := lo | hi
		all := fullMask(c.n, i) & 0x5555555555555555
		dist += bits.OnesCount64(all &^ present)
	}
	return dist
}

// Supercube returns the smallest cube containing both c and d (bitwise OR).
func (c Cube) Supercube(d Cube) Cube {
	if c.n != d.n {
		panic("cube: mismatched variable spaces")
	}
	w := make([]uint64, len(c.w))
	for i := range w {
		w[i] = c.w[i] | d.w[i]
	}
	return Cube{w: w, n: c.n}
}

// UnionWith widens c in place to the supercube of c and d: every variable
// where the phases differ becomes Free. Equivalently, c keeps exactly the
// literals d agrees on — the step of a common-cube (literal-intersection)
// accumulation.
func (c Cube) UnionWith(d Cube) {
	if c.n != d.n {
		panic("cube: mismatched variable spaces")
	}
	for i := range c.w {
		c.w[i] |= d.w[i]
	}
}

// FreeLitsOf returns a copy of c with every variable that appears as a
// literal in d set to Free (the cube quotient c/d when d contains c).
func (c Cube) FreeLitsOf(d Cube) Cube {
	if c.n != d.n {
		panic("cube: mismatched variable spaces")
	}
	out := c.Clone()
	for i := range out.w {
		out.w[i] |= litSlots(d.w[i])
	}
	return out
}

// FreeLitsOfEquals reports whether c.FreeLitsOf(d) equals t word for word,
// without building the quotient.
func (c Cube) FreeLitsOfEquals(d, t Cube) bool {
	if c.n != d.n || c.n != t.n {
		panic("cube: mismatched variable spaces")
	}
	for i := range c.w {
		if c.w[i]|litSlots(d.w[i]) != t.w[i] {
			return false
		}
	}
	return true
}

// litSlots returns both bits of every slot of word w that holds a literal
// (exactly one phase bit set).
func litSlots(w uint64) uint64 {
	lo := w & 0x5555555555555555
	hi := (w >> 1) & 0x5555555555555555
	lit := lo ^ hi
	return lit | lit<<1
}

// Disjoint reports whether c∩p is empty (some variable slot of the
// intersection is 00) without materializing the intersection cube.
func (c Cube) Disjoint(p Cube) bool {
	for i := range c.w {
		m := fullMask(c.n, i) & 0x5555555555555555
		w := c.w[i] & p.w[i]
		lo := w & 0x5555555555555555
		hi := (w >> 1) & 0x5555555555555555
		if (lo|hi)&m != m {
			return true
		}
	}
	return false
}

// Cofactor returns the Shannon cofactor of c with respect to cube p
// (ordinarily a single literal): variables bound by p are freed in the
// result; the second return is false when c∩p is empty (the cofactor is the
// empty cube and should be dropped from a cover).
func (c Cube) Cofactor(p Cube) (Cube, bool) {
	if c.Disjoint(p) {
		return Cube{}, false
	}
	w := make([]uint64, len(c.w))
	c.cofactorInto(w, p)
	return Cube{w: w, n: c.n}, true
}

// cofactorInto writes the cofactor words of c w.r.t. p into dst
// (len(dst) == len(c.w)); the caller has already checked !c.Disjoint(p).
func (c Cube) cofactorInto(dst []uint64, p Cube) {
	for i := range dst {
		// Free every variable where p has a literal: OR with ^p restricted to
		// literal slots of p; simplest correct form is c | ~p (ANDed to space).
		dst[i] = (c.w[i] | ^p.w[i]) & fullMask(c.n, i)
	}
}

// ContainsVar reports whether variable v appears as a literal in c.
func (c Cube) ContainsVar(v int) bool {
	p := c.Get(v)
	return p == Pos || p == Neg
}

// String renders the cube using letters a..z for small spaces and x<i>
// otherwise; "1" is the universal cube, "0" the empty cube.
func (c Cube) String() string {
	if c.IsEmpty() {
		return "0"
	}
	if c.IsUniverse() {
		return "1"
	}
	var b strings.Builder
	for v := 0; v < c.n; v++ {
		switch c.Get(v) {
		case Pos:
			b.WriteString(varName(v, c.n))
		case Neg:
			b.WriteString(varName(v, c.n) + "'")
		}
	}
	return b.String()
}

func varName(v, n int) string {
	if n <= 26 {
		return string(rune('a' + v))
	}
	return fmt.Sprintf("x%d", v)
}

// key returns a comparable string key for map-based deduplication.
func (c Cube) key() string {
	var b strings.Builder
	for _, w := range c.w {
		fmt.Fprintf(&b, "%016x", w)
	}
	return b.String()
}

// FromLits builds a cube over n variables from (variable, phase) literals.
func FromLits(n int, lits map[int]Phase) Cube {
	c := New(n)
	for v, p := range lits {
		c.Set(v, p)
	}
	return c
}

// Parse builds a cube from a compact literal string such as "ab'c" over n
// variables named a, b, c, ... (n ≤ 26). "1" denotes the universal cube.
// It panics on malformed input; it is intended for tests and examples.
func Parse(n int, s string) Cube {
	c := New(n)
	if s == "1" {
		return c
	}
	if s == "0" {
		c.Set(0, Empty)
		return c
	}
	rs := []rune(s)
	for i := 0; i < len(rs); i++ {
		v := int(rs[i] - 'a')
		if v < 0 || v >= n {
			panic(fmt.Sprintf("cube: variable %q out of range in %q", string(rs[i]), s))
		}
		ph := Pos
		if i+1 < len(rs) && rs[i+1] == '\'' {
			ph = Neg
			i++
		}
		c.Set(v, ph)
	}
	return c
}

// SortLess orders cubes canonically (by word values); used to make covers
// deterministic for printing and hashing.
func SortLess(a, b Cube) bool {
	for i := range a.w {
		if a.w[i] != b.w[i] {
			return a.w[i] < b.w[i]
		}
	}
	return false
}

// Canon sorts a cube slice in place into canonical order.
func Canon(cs []Cube) {
	sort.Slice(cs, func(i, j int) bool { return SortLess(cs[i], cs[j]) })
}
