package lint

// The seed-origin engine behind rngseed: an intraprocedural backward
// dataflow over one function body that answers one question — can the
// value of an expression come from the wall clock (time.Now and
// friends) or an entropy source (crypto/rand)? Such a value differs
// from run to run by construction, so it must never seed a RNG.
//
// The engine is deliberately conservative and local: it follows
// assignments to named variables inside one body, looks through
// conversions, parens, arithmetic and method receivers
// (time.Now().UnixNano() is clock-derived through its receiver), and
// treats every other call, field and parameter as a clean value handed
// in from elsewhere. Interprocedural reasoning lives in the facts
// layer, not here.

import (
	"go/ast"
	"go/types"
)

// flow is the per-function dataflow state.
type flow struct {
	info *types.Info
	// defs maps a local variable to every expression assigned to it.
	defs map[types.Object][]ast.Expr
}

// newFlow indexes the assignments of one function body.
func newFlow(info *types.Info, body ast.Node) *flow {
	fl := &flow{info: info, defs: map[types.Object][]ast.Expr{}}
	record := func(id *ast.Ident, rhs ast.Expr) {
		if id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			fl.defs[obj] = append(fl.defs[obj], rhs)
		}
	}
	// A multi-value assignment derives every lhs from the one call.
	pair := func(ids []ast.Expr, vals []ast.Expr) {
		for i, lhs := range ids {
			id, ok := lhs.(*ast.Ident)
			switch {
			case !ok:
			case len(vals) == len(ids):
				record(id, vals[i])
			case len(vals) == 1:
				record(id, vals[0])
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			pair(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			ids := make([]ast.Expr, len(n.Names))
			for i, id := range n.Names {
				ids[i] = id
			}
			pair(ids, n.Values)
		}
		return true
	})
	return fl
}

// nondet reports whether the value of e can derive from the wall clock
// or an entropy source.
func (fl *flow) nondet(e ast.Expr) bool {
	return fl.trace(e, map[types.Object]bool{})
}

func (fl *flow) trace(e ast.Expr, visiting map[types.Object]bool) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return fl.trace(e.X, visiting)
	case *ast.StarExpr:
		return fl.trace(e.X, visiting)
	case *ast.UnaryExpr:
		return fl.trace(e.X, visiting)
	case *ast.BinaryExpr:
		return fl.trace(e.X, visiting) || fl.trace(e.Y, visiting)
	case *ast.IndexExpr:
		return fl.trace(e.X, visiting)
	case *ast.TypeAssertExpr:
		return fl.trace(e.X, visiting)
	case *ast.Ident:
		obj := fl.info.Uses[e]
		if obj == nil || visiting[obj] {
			return false
		}
		// Parameters, receivers, captured and package variables have no
		// assignment here: they are handed in, not fabricated.
		visiting[obj] = true
		defer delete(visiting, obj)
		for _, rhs := range fl.defs[obj] {
			if fl.trace(rhs, visiting) {
				return true
			}
		}
	case *ast.CallExpr:
		// A conversion passes its operand through.
		if tv, ok := fl.info.Types[ast.Unparen(e.Fun)]; ok && tv.IsType() && len(e.Args) == 1 {
			return fl.trace(e.Args[0], visiting)
		}
		fn := callee(fl.info, e)
		if fn == nil {
			return false
		}
		if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "crypto/rand" || pkg.Path() == "time" && wallClockFns[fn.Name()]) {
			return true
		}
		// A method result carries its receiver's origin.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
				return fl.trace(sel.X, visiting)
			}
		}
	}
	return false
}
