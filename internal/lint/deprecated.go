package lint

// DeprecatedUse: a declaration documented "// Deprecated:" may keep
// compiling for a while, but new code must not grow onto it (the module
// declares none today; the analyzer's testdata carries its own). The facts
// layer indexes every module declaration with a Deprecated: paragraph;
// this analyzer flags uses from any *other* package — the declaring
// package may keep using its own shims (the shim body, its
// tests-of-record).

import (
	"go/ast"
	"go/types"
)

// DeprecatedUse flags cross-package uses of deprecated module
// declarations.
var DeprecatedUse = &Analyzer{
	Name: "deprecated-use",
	Doc:  "no new uses of declarations documented as Deprecated:",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := p.Info.Uses[id]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				// Same-package uses (including the unit's external test
				// package) stay legal: the shim and its tests-of-record.
				if samePackage(p, obj.Pkg()) {
					return true
				}
				if note, ok := p.Facts.Deprecated(objKey(obj)); ok {
					p.Reportf(f, id.Pos(), "use of deprecated %s: %s", id.Name, note)
				}
				return true
			})
		}
	},
}

// samePackage reports whether pkg is the unit's own package (by path,
// so an external foo_test unit matches foo).
func samePackage(p *Pass, pkg *types.Package) bool {
	if p.Pkg != nil && pkg == p.Pkg {
		return true
	}
	path := pkg.Path()
	if f := p.Facts; f != nil && f.modPath != "" {
		rel := f.relPkgPath(pkg)
		return rel == p.PkgPath
	}
	return path == p.PkgPath
}
