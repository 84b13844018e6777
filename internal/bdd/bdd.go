// Package bdd implements reduced ordered binary decision diagrams with the
// operations needed for BDD-based Boolean division — the related-work
// baseline the paper compares against conceptually (Stanion & Sechen,
// reference [14]): apply, the Coudert–Madre generalized-cofactor
// (constrain) operator, and Minato–Morreale irredundant SOP extraction for
// converting results back to covers.
package bdd

import (
	"fmt"

	"repro/internal/cube"
)

// Ref references a BDD node. Zero and One are the terminals.
type Ref int32

// Terminal references.
const (
	Zero Ref = 0
	One  Ref = 1
)

type node struct {
	v      int32 // variable index; terminals use a sentinel
	lo, hi Ref
}

const termVar = int32(1) << 30

// Manager owns the node store and caches. Variable order is the index
// order 0..n-1 (top to bottom).
type Manager struct {
	nodes  []node
	unique map[node]Ref
	cache  map[[3]int64]Ref
	nvars  int
}

// NewManager creates a manager over n variables.
func NewManager(n int) *Manager {
	m := &Manager{unique: make(map[node]Ref), cache: make(map[[3]int64]Ref)}
	m.Reset(n)
	return m
}

// Reset empties m to the state NewManager(n) returns, keeping its node
// store's and caches' capacity, so one manager can serve many small
// problems. Refs taken before the Reset are invalid after it.
func (m *Manager) Reset(n int) {
	clear(m.unique)
	clear(m.cache)
	m.nodes = append(m.nodes[:0], node{v: termVar}, node{v: termVar}) // 0, 1
	m.nvars = n
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return m.nvars }

// NumNodes returns the allocated node count (including terminals).
func (m *Manager) NumNodes() int { return len(m.nodes) }

func (m *Manager) mk(v int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	k := node{v: v, lo: lo, hi: hi}
	if r, ok := m.unique[k]; ok {
		return r
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, k)
	m.unique[k] = r
	return r
}

func (m *Manager) topVar(r Ref) int32 { return m.nodes[r].v }

// Var returns the BDD of variable v.
func (m *Manager) Var(v int) Ref {
	if v < 0 || v >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range", v))
	}
	return m.mk(int32(v), Zero, One)
}

// NVar returns the BDD of ¬v.
func (m *Manager) NVar(v int) Ref {
	return m.mk(int32(v), One, Zero)
}

// cofactors splits r on variable v (which must be ≤ its top variable).
func (m *Manager) cofactors(r Ref, v int32) (lo, hi Ref) {
	n := m.nodes[r]
	if n.v != v {
		return r, r
	}
	return n.lo, n.hi
}

type op int64

const (
	opAnd op = iota + 1
	opOr
	opXor
	opNot
	opConstrain
)

// apply computes a binary operation with memoization.
func (m *Manager) apply(o op, a, b Ref) Ref {
	switch o {
	case opAnd:
		if a == Zero || b == Zero {
			return Zero
		}
		if a == One {
			return b
		}
		if b == One {
			return a
		}
		if a == b {
			return a
		}
	case opOr:
		if a == One || b == One {
			return One
		}
		if a == Zero {
			return b
		}
		if b == Zero {
			return a
		}
		if a == b {
			return a
		}
	case opXor:
		if a == Zero {
			return b
		}
		if b == Zero {
			return a
		}
		if a == b {
			return Zero
		}
		if a == One {
			return m.Not(b)
		}
		if b == One {
			return m.Not(a)
		}
	}
	if a > b && (o == opAnd || o == opOr || o == opXor) {
		a, b = b, a
	}
	key := [3]int64{int64(o), int64(a), int64(b)}
	if r, ok := m.cache[key]; ok {
		return r
	}
	v := m.topVar(a)
	if bv := m.topVar(b); bv < v {
		v = bv
	}
	a0, a1 := m.cofactors(a, v)
	b0, b1 := m.cofactors(b, v)
	r := m.mk(v, m.apply(o, a0, b0), m.apply(o, a1, b1))
	m.cache[key] = r
	return r
}

// And returns a ∧ b.
func (m *Manager) And(a, b Ref) Ref { return m.apply(opAnd, a, b) }

// Or returns a ∨ b.
func (m *Manager) Or(a, b Ref) Ref { return m.apply(opOr, a, b) }

// Xor returns a ⊕ b.
func (m *Manager) Xor(a, b Ref) Ref { return m.apply(opXor, a, b) }

// Not returns ¬a.
func (m *Manager) Not(a Ref) Ref {
	switch a {
	case Zero:
		return One
	case One:
		return Zero
	}
	key := [3]int64{int64(opNot), int64(a), 0}
	if r, ok := m.cache[key]; ok {
		return r
	}
	n := m.nodes[a]
	r := m.mk(n.v, m.Not(n.lo), m.Not(n.hi))
	m.cache[key] = r
	return r
}

// Constrain computes the Coudert–Madre generalized cofactor f↓c: a function
// agreeing with f wherever c holds, typically much smaller. c must not be
// Zero. This is the quotient operator of BDD-based Boolean division:
// f = c·(f↓c) + c̄·(f↓c̄).
func (m *Manager) Constrain(f, c Ref) Ref {
	if c == Zero {
		panic("bdd: constrain by zero")
	}
	if c == One || f == Zero || f == One {
		return f
	}
	if f == c {
		return One
	}
	key := [3]int64{int64(opConstrain), int64(f), int64(c)}
	if r, ok := m.cache[key]; ok {
		return r
	}
	v := m.topVar(f)
	if cv := m.topVar(c); cv < v {
		v = cv
	}
	f0, f1 := m.cofactors(f, v)
	c0, c1 := m.cofactors(c, v)
	var r Ref
	switch {
	case c0 == Zero:
		r = m.Constrain(f1, c1)
	case c1 == Zero:
		r = m.Constrain(f0, c0)
	default:
		r = m.mk(v, m.Constrain(f0, c0), m.Constrain(f1, c1))
	}
	m.cache[key] = r
	return r
}

// FromCover builds the BDD of a SOP cover (cover variables map to BDD
// variables of the same index).
func (m *Manager) FromCover(f cube.Cover) Ref {
	out := Zero
	for _, c := range f.Cubes {
		t := One
		// AND literals from the bottom of the order up for linear growth.
		lits := c.Lits()
		for i := len(lits) - 1; i >= 0; i-- {
			v := lits[i]
			if c.Get(v) == cube.Pos {
				t = m.And(t, m.Var(v))
			} else {
				t = m.And(t, m.NVar(v))
			}
		}
		out = m.Or(out, t)
	}
	return out
}

// Eval evaluates f on a complete assignment.
func (m *Manager) Eval(f Ref, assign []bool) bool {
	for f != Zero && f != One {
		n := m.nodes[f]
		if assign[n.v] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == One
}

// ISOP extracts an irredundant sum-of-products cover of f by the
// Minato–Morreale procedure. maxCubes bounds the result (0 = 4096); nil is
// returned with ok=false if exceeded.
func (m *Manager) ISOP(f Ref, maxCubes int) (cube.Cover, bool) {
	return m.ISOPInterval(f, f, maxCubes)
}

// ISOPInterval extracts an irredundant SOP of SOME function in the interval
// [l, u] (l ⊆ result ⊆ u) — the don't-care-aware form used by BDD-based
// division, where quotient and remainder have freedom off the divisor.
func (m *Manager) ISOPInterval(l, u Ref, maxCubes int) (cube.Cover, bool) {
	if maxCubes <= 0 {
		maxCubes = 4096
	}
	cov, _, ok := m.isop(l, u, maxCubes)
	if !ok {
		return cube.Cover{}, false
	}
	return cov, true
}

// isop computes an ISOP for any function in the interval [l, u], returning
// the cover and its BDD.
func (m *Manager) isop(l, u Ref, budget int) (cube.Cover, Ref, bool) {
	n := m.nvars
	if l == Zero {
		return cube.NewCover(n), Zero, true
	}
	if u == One {
		return cube.CoverOf(n, cube.New(n)), One, true
	}
	v := m.topVar(l)
	if uv := m.topVar(u); uv < v {
		v = uv
	}
	l0, l1 := m.cofactors(l, v)
	u0, u1 := m.cofactors(u, v)

	// Cubes that must contain v̄ / v.
	c0, f0, ok := m.isop(m.And(l0, m.Not(u1)), u0, budget)
	if !ok {
		return cube.Cover{}, Zero, false
	}
	c1, f1, ok := m.isop(m.And(l1, m.Not(u0)), u1, budget)
	if !ok {
		return cube.Cover{}, Zero, false
	}
	// Remaining onset handled without v.
	lr0 := m.And(l0, m.Not(f0))
	lr1 := m.And(l1, m.Not(f1))
	cd, fd, ok := m.isop(m.Or(lr0, lr1), m.And(u0, u1), budget)
	if !ok {
		return cube.Cover{}, Zero, false
	}

	out := cube.NewCover(n)
	for _, c := range c0.Cubes {
		k := c.Clone()
		k.Set(int(v), cube.Neg)
		out.Cubes = append(out.Cubes, k)
	}
	for _, c := range c1.Cubes {
		k := c.Clone()
		k.Set(int(v), cube.Pos)
		out.Cubes = append(out.Cubes, k)
	}
	out.Cubes = append(out.Cubes, cd.Cubes...)
	if out.NumCubes() > budget {
		return cube.Cover{}, Zero, false
	}
	fv := m.mk(v, m.Or(f0, fd), m.Or(f1, fd))
	return out, fv, true
}

// Support returns the ascending variable indices f depends on.
func (m *Manager) Support(f Ref) []int {
	seen := map[Ref]bool{}
	vars := map[int]bool{}
	var walk func(Ref)
	walk = func(r Ref) {
		if r == Zero || r == One || seen[r] {
			return
		}
		seen[r] = true
		n := m.nodes[r]
		vars[int(n.v)] = true
		walk(n.lo)
		walk(n.hi)
	}
	walk(f)
	out := make([]int, 0, len(vars))
	for v := 0; v < m.nvars; v++ {
		if vars[v] {
			out = append(out, v)
		}
	}
	return out
}

// SatCount returns the number of satisfying assignments of f over the full
// variable space (as float64 — exact for < 2^53 models).
func (m *Manager) SatCount(f Ref) float64 {
	memo := map[Ref]float64{}
	var count func(r Ref, level int32) float64
	count = func(r Ref, level int32) float64 {
		n := m.nodes[r]
		top := n.v
		if r == Zero || r == One {
			top = int32(m.nvars)
		}
		scale := pow2(int(top - level))
		if r == Zero {
			return 0
		}
		if r == One {
			return scale
		}
		if c, ok := memo[r]; ok {
			return scale * c
		}
		c := count(n.lo, n.v+1) + count(n.hi, n.v+1)
		memo[r] = c
		return scale * c
	}
	return count(f, 0)
}

func pow2(n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= 2
	}
	return out
}

// Divide performs BDD-based Boolean division of f by d (the method of
// reference [14]): quotient = f↓d (generalized cofactor), remainder =
// f ∧ d̄. By the constrain identity f = d·q + r exactly.
func (m *Manager) Divide(f, d Ref) (q, r Ref) {
	if d == Zero {
		return Zero, f
	}
	q = m.Constrain(f, d)
	r = m.And(f, m.Not(d))
	return q, r
}
