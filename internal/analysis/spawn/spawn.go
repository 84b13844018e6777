// Package spawn flags goroutine creation in the engine packages. All
// engine concurrency is required to flow through the bounded worker pool in
// internal/core/batch.go (the batch scheduler's phase B) — its single
// annotated `go` site — so worker counts stay clamped, results commit in
// the deterministic serial sweep, and the race gate covers every spawn. An
// ad-hoc goroutine anywhere else in the result-affecting packages bypasses
// all three properties.
package spawn

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer is the spawn rule.
var Analyzer = &analysis.Analyzer{
	Name: "spawn",
	Doc: "forbid goroutine creation in engine packages outside the bounded " +
		"worker pool (core/batch.go), which carries the one sanctioned " +
		"//bdslint:ignore spawn site",
	Guarded: []string{"internal/core", "internal/network", "internal/netlist", "internal/atpg", "internal/algebraic"},
	Run:     run,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "goroutine creation in an engine package: use the bounded worker pool in core/batch.go or justify with //bdslint:ignore spawn")
			}
			return true
		})
	}
}
