// Package maporder flags `range` statements over maps in the
// result-affecting packages. Go randomizes map iteration order, so a map
// range whose body can observe the order (it binds the key or value) is a
// determinism hazard: the engine's headline guarantee — byte-identical BLIF
// at any worker count — has been broken by exactly this bug class before
// (window PI numbering, candidate ordering). Order-insensitive sites (set
// building, commutative accumulation, keys sorted immediately after) are
// exempted with //bdslint:ignore maporder plus a justification.
package maporder

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the maporder rule.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag range over a map in result-affecting packages: iteration " +
		"order is randomized, so any order-observing body is a determinism bug " +
		"unless the site is justified with //bdslint:ignore maporder",
	Guarded: []string{"internal/core", "internal/network", "internal/netlist", "internal/atpg", "internal/algebraic"},
	Run:     run,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			// A range binding neither key nor value (or binding them to _)
			// cannot observe the iteration order: its iterations are
			// indistinguishable, so the result is order-independent.
			if !binds(rs.Key) && !binds(rs.Value) {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				pass.Reportf(rs.For, "range over map %s: iteration order is nondeterministic — sort the keys first or justify with //bdslint:ignore maporder", types.ExprString(rs.X))
			}
			return true
		})
	}
}

// binds reports whether a range variable expression observes the iteration
// (it exists and is not the blank identifier).
func binds(e ast.Expr) bool {
	if e == nil {
		return false
	}
	if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
		return false
	}
	return true
}
