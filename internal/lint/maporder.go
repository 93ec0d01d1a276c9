package lint

// MapOrder: Go map iteration order is randomized per run, so any range
// over a map whose iterates can reach an output — a writer, an
// encoder, the event stream, a returned slice — silently breaks the
// repo's reproducibility invariants (byte-identical snapshots, stable
// Prometheus exposition, deterministic event logs). The sanctioned
// idiom everywhere in the repo is collect-then-sort: append the keys
// inside the loop, sort the slice after the loop, then iterate the
// sorted slice. This analyzer flags the two ways the idiom is skipped:
//
//   - an emission call (Write/Fprintf/Encode/...) directly inside the
//     map-range body, and
//   - a slice appended to inside the body that is then returned or
//     passed on without an intervening sort.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// emissionFns are free functions whose call inside a map range writes
// in iteration order.
var emissionFns = map[string]map[string]bool{
	"fmt": {
		"Fprint": true, "Fprintf": true, "Fprintln": true,
		"Print": true, "Printf": true, "Println": true,
	},
}

// emissionMethods are method names that emit to an ordered sink.
var emissionMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Emit": true, "Fprintf": true,
}

// sortPkgs are the packages whose calls establish an order.
var sortPkgs = map[string]bool{"sort": true, "slices": true}

// MapOrder flags map iterations whose order can reach an output:
// either an emission call inside the loop body, or an appended slice
// that leaves the function (returned or passed along) without being
// sorted after the loop.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration order must not reach outputs; collect keys and sort before emitting",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			if isTestFile(f) {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkFuncMapOrder(p, f, fd.Body)
			}
		}
	},
}

func checkFuncMapOrder(p *Pass, f *File, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(p, f, body, rng)
		return true
	})
}

// checkMapRange inspects one map-range statement inside its function
// body.
func checkMapRange(p *Pass, f *File, body *ast.BlockStmt, rng *ast.RangeStmt) {
	appended := map[types.Object]token.Pos{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isEmissionCall(p, n) {
				p.Reportf(f, n.Pos(),
					"emission inside a map range writes in randomized iteration order; collect keys, sort, then emit")
			}
		case *ast.AssignStmt:
			// x = append(x, ...) with an identifier target.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(p, call) || i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if obj := p.Info.ObjectOf(id); obj != nil {
					if _, seen := appended[obj]; !seen {
						appended[obj] = call.Pos()
					}
				}
			}
		}
		return true
	})
	for obj, pos := range appended {
		if sortedAfter(p, body, rng, obj) {
			continue
		}
		if escapesUnsorted(p, body, rng, obj) {
			p.Reportf(f, pos,
				"slice %q is built in map iteration order and used without sorting; sort it before it leaves the loop's function", obj.Name())
		}
	}
}

// isEmissionCall reports whether a call writes to an ordered sink.
func isEmissionCall(p *Pass, call *ast.CallExpr) bool {
	cf := callee(p.Info, call)
	if cf == nil {
		return false
	}
	sig, _ := cf.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return emissionMethods[cf.Name()]
	}
	if pkg := cf.Pkg(); pkg != nil {
		if fns := emissionFns[pkg.Path()]; fns != nil {
			return fns[cf.Name()]
		}
	}
	return false
}

// isBuiltinAppend reports whether a call is the append builtin.
func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		// No type info: trust the name.
		return true
	}
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

// sortedAfter reports whether a sort/slices call mentioning obj occurs
// after the range statement within the function body.
func sortedAfter(p *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		cf := callee(p.Info, call)
		if cf == nil || cf.Pkg() == nil || !sortPkgs[cf.Pkg().Path()] {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObj(p, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// escapesUnsorted reports whether obj is used after the range statement
// in a way that exposes its order: returned, passed to a call, ranged
// over, or assigned into a structure.
func escapesUnsorted(p *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes || (n != nil && n.End() <= rng.End() && n.Pos() >= rng.Pos()) {
			return !escapes
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mentionsObj(p, res, obj) {
					escapes = true
				}
			}
		case *ast.RangeStmt:
			if n != rng && n.Pos() > rng.End() && identIs(p, n.X, obj) {
				escapes = true
			}
		case *ast.CallExpr:
			if n.Pos() < rng.End() {
				return true
			}
			if isBuiltinAppend(p, n) {
				return true
			}
			if cf := callee(p.Info, n); cf != nil && cf.Pkg() != nil && sortPkgs[cf.Pkg().Path()] {
				return true
			}
			for _, arg := range n.Args {
				if identIs(p, arg, obj) {
					escapes = true
				}
			}
		case *ast.AssignStmt:
			if n.Pos() < rng.End() {
				return true
			}
			for i, rhs := range n.Rhs {
				if !identIs(p, rhs, obj) || i >= len(n.Lhs) {
					continue
				}
				// Assigned into a field, map, or index: order escapes.
				switch n.Lhs[i].(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					escapes = true
				}
			}
		}
		return !escapes
	})
	return escapes
}

// mentionsObj reports whether the expression references obj anywhere.
func mentionsObj(p *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// identIs reports whether the expression is exactly an identifier for
// obj (modulo parens).
func identIs(p *Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && p.Info.ObjectOf(id) == obj
}
