// Package noclock forbids wall-clock reads and math/rand in the
// result-affecting packages. A deciding path that consults time.Now or an
// unseeded PRNG produces different networks run to run, silently voiding
// the determinism contract; randomness must come from fixed-seed generators
// and timing must flow through the injectable core.Clock. Sanctioned
// telemetry sites (the wall-clock implementation itself, the seeded
// fault-simulation PRNG) carry //bdslint:ignore noclock justifications.
package noclock

import (
	"go/ast"
	"go/types"
	"strconv"

	"repro/internal/analysis"
)

// Analyzer is the noclock rule.
var Analyzer = &analysis.Analyzer{
	Name: "noclock",
	Doc: "forbid time.Now/Since/Until and math/rand imports in " +
		"result-affecting packages outside //bdslint:ignore noclock sites",
	Guarded: []string{"internal/core", "internal/network", "internal/netlist", "internal/atpg", "internal/algebraic"},
	Run:     run,
}

// clockFuncs are the time-package functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in a result-affecting package: randomness must be fixed-seed and justified with //bdslint:ignore noclock", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !clockFuncs[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pkgName.Imported().Path() == "time" {
				pass.Reportf(call.Pos(), "wall-clock read time.%s in a result-affecting package: route timing through the injectable Clock or justify with //bdslint:ignore noclock", sel.Sel.Name)
			}
			return true
		})
	}
}
