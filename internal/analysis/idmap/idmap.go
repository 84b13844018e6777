// Package idmap implements the bdslint analyzer that keeps string-keyed
// maps off the hot path. Since the dense-ID network core landed, every
// signal has a stable network.SigID and the planner's per-trial bookkeeping
// is meant to live in SigID-indexed slices, bitsets, and epoch-tagged
// arenas — a map[string]T inside internal/core, internal/network, or
// internal/netlist is almost always a regression back to hashing names in
// an inner loop. Names belong at the BLIF/SymTab boundary.
//
// The analyzer flags three site kinds in guarded packages: declarations
// whose type is a string-keyed map (struct fields, vars, named types),
// map[string]T composite literals, and make calls producing a string-keyed
// map. Boundary code is exempted structurally rather than by annotation: a
// function whose own signature mentions a string-keyed map (Simulate,
// Fanouts, Levels, Eval, ...) IS the name-keyed boundary API, so
// its body is skipped entirely, as are all function-type expressions
// (signatures declare interfaces, they don't allocate). Deliberate
// boundary state that remains — the symbol table itself, the overlay's
// tiny name-keyed delta — carries a justified //bdslint:ignore idmap.
package idmap

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags string-keyed map declarations, literals, and makes in the
// hot-path packages.
var Analyzer = &analysis.Analyzer{
	Name: "idmap",
	Doc: "disallow map[string]T declarations, composite literals, and make calls in hot-path " +
		"packages (internal/core, internal/network, internal/netlist); per-signal state there " +
		"must be network.SigID-indexed (slice, bitset, or epoch-tagged arena), with names " +
		"resolved only at the SymTab boundary",
	Guarded: []string{"internal/core", "internal/network", "internal/netlist"},
	Run:     run,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil || boundaryFunc(pass, d) {
					continue
				}
				inspect(pass, d.Body)
			case *ast.GenDecl:
				inspect(pass, d)
			}
		}
	}
}

// inspect walks one declaration or body, reporting every string-keyed map
// site. Function-type expressions (signatures) and interface bodies are
// skipped wholesale: they declare boundary APIs, they don't allocate.
func inspect(pass *analysis.Pass, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncType, *ast.InterfaceType:
			return false
		case *ast.StructType:
			for _, field := range x.Fields.List {
				if stringMap(pass.TypesInfo.TypeOf(field.Type)) {
					pass.Reportf(field.Pos(), "string-keyed map field in a hot-path package: index by network.SigID (slice/bitset/epoch arena) instead")
				}
			}
		case *ast.TypeSpec:
			if stringMap(pass.TypesInfo.TypeOf(x.Type)) {
				pass.Reportf(x.Pos(), "string-keyed map type in a hot-path package: index by network.SigID (slice/bitset/epoch arena) instead")
			}
		case *ast.ValueSpec:
			if x.Type != nil && stringMap(pass.TypesInfo.TypeOf(x.Type)) {
				pass.Reportf(x.Pos(), "string-keyed map declaration in a hot-path package: index by network.SigID (slice/bitset/epoch arena) instead")
			}
		case *ast.CompositeLit:
			if stringMap(pass.TypesInfo.TypeOf(x)) {
				pass.Reportf(x.Pos(), "string-keyed map literal in a hot-path package: index by network.SigID (slice/bitset/epoch arena) instead")
			}
		case *ast.CallExpr:
			if isMake(pass, x) && stringMap(pass.TypesInfo.TypeOf(x)) {
				pass.Reportf(x.Pos(), "make of a string-keyed map in a hot-path package: index by network.SigID (slice/bitset/epoch arena) instead")
			}
		}
		return true
	})
}

// boundaryFunc reports whether the function's own signature mentions a
// string-keyed map in a parameter or result: such a function is name-keyed
// boundary API by construction, and its body is exempt.
func boundaryFunc(pass *analysis.Pass, d *ast.FuncDecl) bool {
	obj, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tup.Len(); i++ {
			if stringMap(tup.At(i).Type()) {
				return true
			}
		}
	}
	return false
}

// stringMap reports whether t's underlying type is a map with a string key.
func stringMap(t types.Type) bool {
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	b, ok := m.Key().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isMake reports whether the call invokes the make builtin.
func isMake(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	_, builtin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return builtin
}
