package algebraic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cube"
)

// ExprKind discriminates factored-form tree nodes.
type ExprKind uint8

const (
	// KLit is a single literal leaf.
	KLit ExprKind = iota
	// KAnd is a product of sub-expressions.
	KAnd
	// KOr is a sum of sub-expressions.
	KOr
	// KConst is constant 0 or 1 (Val).
	KConst
)

// Expr is a node in a factored form. It is produced by Factor and consumed
// for literal counting and printing; the paper reports all results in
// factored-form literals.
type Expr struct {
	Kind  ExprKind
	Var   int        // for KLit
	Phase cube.Phase // for KLit
	Val   bool       // for KConst
	Args  []*Expr    // for KAnd / KOr
}

// Lits returns the literal count of the factored form.
func (e *Expr) Lits() int {
	switch e.Kind {
	case KLit:
		return 1
	case KConst:
		return 0
	default:
		n := 0
		for _, a := range e.Args {
			n += a.Lits()
		}
		return n
	}
}

// String renders the factored form with letters for small variable spaces.
func (e *Expr) String() string { return e.render(26) }

// Render renders using the variable-naming convention for n variables.
func (e *Expr) Render(n int) string { return e.render(n) }

func (e *Expr) render(n int) string {
	switch e.Kind {
	case KConst:
		if e.Val {
			return "1"
		}
		return "0"
	case KLit:
		s := litName(e.Var, n)
		if e.Phase == cube.Neg {
			s += "'"
		}
		return s
	case KAnd:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			s := a.render(n)
			if a.Kind == KOr {
				s = "(" + s + ")"
			}
			parts[i] = s
		}
		return strings.Join(parts, "")
	default: // KOr
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.render(n)
		}
		sort.Strings(parts)
		return strings.Join(parts, " + ")
	}
}

func litName(v, n int) string {
	if n <= 26 {
		return string(rune('a' + v))
	}
	return fmt.Sprintf("x%d", v)
}

// Factor computes a factored form of f using the quick-factor strategy:
// divide by a level-0 kernel when profitable, otherwise by the best literal,
// recursing on quotient, divisor and remainder. The result is heuristic but
// matches SIS quick_factor in character; it is the basis of FactorLits.
func Factor(f cube.Cover) *Expr {
	f = f.SCC()
	if f.IsZero() {
		return &Expr{Kind: KConst, Val: false}
	}
	if f.NumCubes() == 1 && f.Cubes[0].IsUniverse() {
		return &Expr{Kind: KConst, Val: true}
	}
	return factorRec(f, 0)
}

const maxFactorDepth = 256

func factorRec(f cube.Cover, depth int) *Expr {
	f = f.SCC()
	if f.IsZero() {
		return &Expr{Kind: KConst, Val: false}
	}
	if f.NumCubes() == 1 {
		return cubeExpr(f.Cubes[0])
	}
	if depth > maxFactorDepth {
		return sopExpr(f)
	}
	// Pull out the common cube first: f = cc · f'.
	ff, cc := MakeCubeFree(f)
	if cc.NumLits() > 0 {
		inner := factorRec(ff, depth+1)
		return flattenAnd(&Expr{Kind: KAnd, Args: []*Expr{cubeExpr(cc), inner}})
	}
	lit, ok := repeatedLiteral(f)
	if !ok {
		// No sharing possible: plain SOP.
		return sopExpr(f)
	}
	// Candidate 1: best-literal division.
	qL, rL := DivideByLiteral(f, lit.v, lit.p)
	litExpr := &Expr{Kind: KLit, Var: lit.v, Phase: lit.p}
	candL := buildQDR(&Expr{Kind: KAnd, Args: []*Expr{litExpr}}, qL, rL, depth)

	// Candidate 2: level-0 kernel division (captures (a+b)(c+d) sharing).
	best := candL
	if k, ok := Level0Kernel(f); ok && k.NumCubes() >= 2 && k.NumCubes() < f.NumCubes() {
		q, r := WeakDivide(f, k)
		if !q.IsZero() && q.NumCubes()*k.NumCubes() >= q.NumCubes()+k.NumCubes() {
			dExpr := factorRec(k, depth+1)
			candK := buildQDR(dExpr, q, r, depth)
			if candK.Lits() < best.Lits() {
				best = candK
			}
		}
	}
	return best
}

// buildQDR assembles q·d + r recursively factoring q and r.
func buildQDR(dExpr *Expr, q, r cube.Cover, depth int) *Expr {
	qe := factorRec(q, depth+1)
	and := flattenAnd(&Expr{Kind: KAnd, Args: []*Expr{qe, dExpr}})
	if r.IsZero() {
		return and
	}
	re := factorRec(r, depth+1)
	return flattenOr(&Expr{Kind: KOr, Args: []*Expr{and, re}})
}

func cubeExpr(c cube.Cube) *Expr {
	lits := c.Lits()
	if len(lits) == 0 {
		return &Expr{Kind: KConst, Val: true}
	}
	if len(lits) == 1 {
		return &Expr{Kind: KLit, Var: lits[0], Phase: c.Get(lits[0])}
	}
	e := &Expr{Kind: KAnd}
	for _, v := range lits {
		e.Args = append(e.Args, &Expr{Kind: KLit, Var: v, Phase: c.Get(v)})
	}
	return e
}

func sopExpr(f cube.Cover) *Expr {
	if f.IsZero() {
		return &Expr{Kind: KConst, Val: false}
	}
	if f.NumCubes() == 1 {
		return cubeExpr(f.Cubes[0])
	}
	e := &Expr{Kind: KOr}
	cs := append([]cube.Cube(nil), f.Cubes...)
	cube.Canon(cs)
	for _, c := range cs {
		e.Args = append(e.Args, cubeExpr(c))
	}
	return e
}

func flattenAnd(e *Expr) *Expr {
	var args []*Expr
	for _, a := range e.Args {
		switch {
		case a.Kind == KAnd:
			args = append(args, a.Args...)
		case a.Kind == KConst && a.Val:
			// drop multiplicative identity
		case a.Kind == KConst && !a.Val:
			return &Expr{Kind: KConst, Val: false}
		default:
			args = append(args, a)
		}
	}
	if len(args) == 0 {
		return &Expr{Kind: KConst, Val: true}
	}
	if len(args) == 1 {
		return args[0]
	}
	return &Expr{Kind: KAnd, Args: args}
}

func flattenOr(e *Expr) *Expr {
	var args []*Expr
	for _, a := range e.Args {
		switch {
		case a.Kind == KOr:
			args = append(args, a.Args...)
		case a.Kind == KConst && !a.Val:
			// drop additive identity
		case a.Kind == KConst && a.Val:
			return &Expr{Kind: KConst, Val: true}
		default:
			args = append(args, a)
		}
	}
	if len(args) == 0 {
		return &Expr{Kind: KConst, Val: false}
	}
	if len(args) == 1 {
		return args[0]
	}
	return &Expr{Kind: KOr, Args: args}
}

// FactorLits returns the factored-form literal count of f — the cost metric
// of the paper's experimental tables (SIS "lits(fac)"). It mirrors Factor's
// recursion decision for decision (same divisions, same comparisons) while
// only tallying counts, so no expression tree is built: FactorLits(f) ==
// Factor(f).Lits() for every cover without empty cubes (Cover.Add never
// stores one). This is the inner-loop cost metric of every division trial,
// hence the duplication. The recursion runs on a pooled cube arena (see
// arena.go): every intermediate cover is a span of cube headers and every
// derived cube is bump-allocated and released per frame, so a warmed call
// allocates nothing. It is safe for concurrent use and never writes f.
func FactorLits(f cube.Cover) int {
	if f.IsZero() {
		return 0
	}
	a := getArena()
	n := a.factorLits(a.push(f.Cubes), 0)
	putArena(a)
	return n
}

// GoodFactor computes a factored form like Factor but searches all kernels
// (capped) at each level for the divisor minimizing the recursive literal
// count — the SIS good_factor trade-off: better counts, more work. The
// result is never worse than Factor's.
func GoodFactor(f cube.Cover) *Expr {
	f = f.SCC()
	if f.IsZero() {
		return &Expr{Kind: KConst, Val: false}
	}
	if f.NumCubes() == 1 && f.Cubes[0].IsUniverse() {
		return &Expr{Kind: KConst, Val: true}
	}
	e := goodFactorRec(f, 0)
	if q := factorRec(f, 0); q.Lits() < e.Lits() {
		return q
	}
	return e
}

// goodKernelCap bounds the kernels examined per level.
const goodKernelCap = 24

func goodFactorRec(f cube.Cover, depth int) *Expr {
	f = f.SCC()
	if f.IsZero() {
		return &Expr{Kind: KConst, Val: false}
	}
	if f.NumCubes() == 1 {
		return cubeExpr(f.Cubes[0])
	}
	if depth > maxFactorDepth {
		return sopExpr(f)
	}
	ff, cc := MakeCubeFree(f)
	if cc.NumLits() > 0 {
		inner := goodFactorRec(ff, depth+1)
		return flattenAnd(&Expr{Kind: KAnd, Args: []*Expr{cubeExpr(cc), inner}})
	}
	lit, ok := repeatedLiteral(f)
	if !ok {
		return sopExpr(f)
	}
	// Baseline: best-literal division.
	qL, rL := DivideByLiteral(f, lit.v, lit.p)
	litExpr := &Expr{Kind: KLit, Var: lit.v, Phase: lit.p}
	best := buildGoodQDR(&Expr{Kind: KAnd, Args: []*Expr{litExpr}}, qL, rL, depth)
	// Search kernels for a better divisor.
	for _, k := range Kernels(f, goodKernelCap) {
		if k.K.NumCubes() < 2 || k.K.NumCubes() >= f.NumCubes() {
			continue
		}
		q, r := WeakDivide(f, k.K)
		if q.IsZero() {
			continue
		}
		dExpr := goodFactorRec(k.K, depth+1)
		cand := buildGoodQDR(dExpr, q, r, depth)
		if cand.Lits() < best.Lits() {
			best = cand
		}
	}
	return best
}

func buildGoodQDR(dExpr *Expr, q, r cube.Cover, depth int) *Expr {
	qe := goodFactorRec(q, depth+1)
	and := flattenAnd(&Expr{Kind: KAnd, Args: []*Expr{qe, dExpr}})
	if r.IsZero() {
		return and
	}
	re := goodFactorRec(r, depth+1)
	return flattenOr(&Expr{Kind: KOr, Args: []*Expr{and, re}})
}

// GoodFactorLits is the literal count of GoodFactor's result.
func GoodFactorLits(f cube.Cover) int { return GoodFactor(f).Lits() }

// Eval evaluates a factored form on a complete assignment; used by tests to
// confirm Factor preserves the function.
func (e *Expr) Eval(assign []bool) bool {
	switch e.Kind {
	case KConst:
		return e.Val
	case KLit:
		return assign[e.Var] == (e.Phase == cube.Pos)
	case KAnd:
		for _, a := range e.Args {
			if !a.Eval(assign) {
				return false
			}
		}
		return true
	default:
		for _, a := range e.Args {
			if a.Eval(assign) {
				return true
			}
		}
		return false
	}
}
