package lint

// LabelCard: metric label values must have bounded cardinality. Every
// distinct label tuple materializes a child series that lives for the
// process lifetime, so a label value derived from a free-form string —
// an error message, a Sprintf, a request-derived name — grows the
// registry without bound and quietly breaks the "scrape == snapshot"
// equality the telemetry tests pin. Label values passed to the obs
// *Vec.With constructors must come from bounded enums: constants,
// declared enum-like variables, or caller-threaded parameters that are
// themselves bounded upstream.

import (
	"go/ast"
	"go/types"
)

// vecTypes are the obs vector families whose With method mints labeled
// children.
var vecTypes = map[string]bool{
	"CounterVec": true, "GaugeVec": true,
}

// labelTaintOrigin names the offending origin for the diagnostic.
func labelTaintOrigin(t taint) string {
	switch {
	case t&taintErrText != 0:
		return "an error message"
	case t&taintSprintf != 0:
		return "fmt.Sprintf output"
	case t&taintStrconv != 0:
		return "a strconv rendering of a runtime value"
	case t&taintNondet != 0:
		return "a wall-clock or entropy value"
	case t&taintConcat != 0:
		return "a runtime string concatenation"
	}
	return "a free-form string"
}

// LabelCard flags *Vec.With label values whose origin is an unbounded
// string.
var LabelCard = &Analyzer{
	Name: "labelcard",
	Doc:  "metric label values must be bounded enums, never free-form strings",
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
				var fl *flow
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || !isVecWith(p, call) {
						return true
					}
					if fl == nil {
						fl = newFlow(p.Info, fd.Body)
					}
					for _, arg := range call.Args {
						if t := fl.sources(arg); t&freeString != 0 {
							p.Reportf(f, arg.Pos(),
								"metric label value derives from %s; label values must be bounded enums (unbounded labels grow the registry without limit)", labelTaintOrigin(t))
						}
					}
					return true
				})
			}
		}
	},
}

// isVecWith reports whether a call is With on one of the obs vector
// families.
func isVecWith(p *Pass, call *ast.CallExpr) bool {
	cf := callee(p.Info, call)
	if cf == nil || cf.Name() != "With" {
		return false
	}
	sig, _ := cf.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if !vecTypes[obj.Name()] || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "repro/internal/obs" || path == "internal/obs" ||
		len(path) > len("/internal/obs") && path[len(path)-len("/internal/obs"):] == "/internal/obs"
}
