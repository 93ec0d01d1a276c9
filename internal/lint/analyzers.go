package lint

// The repo's analyzers. Each enforces an invariant that is documented
// prose elsewhere (DESIGN.md, package comments) but was previously
// unchecked:
//
//   - ctxfield: context.Context is passed down call chains, not stored in
//     structs (Go API convention); the two sanctioned per-call engine
//     structs carry //lint:ignore directives with their justification.
//   - errprefix: exported error paths of internal packages carry the
//     package attribution prefix ("exec: ...") established in PR 1, so a
//     failure names the layer it escaped from.
//   - obsnew: obs instruments (Counter, Gauge, Histogram) are only
//     created by the registry's constructors, which deduplicate by name;
//     a struct literal bypasses the registry and its snapshot.
//   - ioerr: errors are classified with errors.Is/errors.As (the typed
//     disk.IOError taxonomy), never by == on error values or by string
//     matching on Error() text — both break under wrapping, and the
//     retry/recovery layers depend on classification surviving wraps.
//   - obslog: internal packages report through the structured event log
//     (obs.Log) or returned errors, never by printing to stderr or via
//     the stdlib log package; ad-hoc prints bypass the flight recorder
//     and the -log-out stream. CLIs (cmd/...) and tests are exempt.
//
// Three invariants once checked here by syntax are now held by the code
// itself: disk.Stats are only ever a disk.Ledger snapshot (its tallies
// are unexported), obs label families panic past a fixed child cap, and
// every goroutine's shutdown is checked at run time by internal/leaktest
// in the tests that drive it.

import (
	"go/ast"
	"go/token"
	"strings"
)

// Analyzers lists every repo analyzer in the order they run.
var Analyzers = []*Analyzer{
	CtxField, ErrPrefix, ObsNew, IOErr, ObsLog,
	WallTime, MapOrder, RngSeed,
}

// CtxField flags context.Context stored as a struct field.
var CtxField = &Analyzer{
	Name: "ctxfield",
	Doc:  "disallow context.Context struct fields; pass contexts down call chains",
	Run: func(p *Pass) {
		isCtxType := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Context" {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && id.Name == "context"
		}
		for _, f := range p.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if isCtxType(field.Type) {
						p.Reportf(f, field.Pos(), "context.Context stored in a struct; thread it through calls instead")
					}
				}
				return true
			})
		}
	},
}

// ErrPrefix flags exported error paths of internal packages whose error
// text lacks the "<pkg>: " attribution prefix. Unexported helpers are
// exempt: their errors are wrapped with attribution at the exported
// boundary (the internal/tce parse helpers are the pattern). Test files
// are exempt.
var ErrPrefix = &Analyzer{
	Name: "errprefix",
	Doc:  "exported error paths in internal packages carry the package attribution prefix",
	Run: func(p *Pass) {
		if !strings.HasPrefix(p.PkgPath, "internal/") {
			return
		}
		prefix := `"` + p.PkgName + `: `
		for _, f := range p.Files {
			if isTestFile(f) {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					newErr := (id.Name == "fmt" && sel.Sel.Name == "Errorf") ||
						(id.Name == "errors" && sel.Sel.Name == "New")
					if !newErr {
						return true
					}
					lit, ok := call.Args[0].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						return true
					}
					if !strings.HasPrefix(lit.Value, prefix) {
						p.Reportf(f, lit.Pos(),
							"error text in exported %s lacks the %q attribution prefix", fd.Name.Name, p.PkgName+": ")
					}
					return true
				})
			}
		}
	},
}

// stringMatchFns are the strings-package predicates whose use on Error()
// text amounts to error classification by message.
var stringMatchFns = map[string]bool{
	"Contains": true, "HasPrefix": true, "HasSuffix": true,
	"Index": true, "EqualFold": true,
}

// IOErr flags error classification that bypasses errors.Is/errors.As:
// equality comparisons between error-shaped values (except against nil),
// strings-package matching on Error() text, and direct type assertions
// on error-shaped values. All three break as soon as an error is wrapped
// with %w — which every layer boundary in this repo does; in particular
// disk.IntegrityError always arrives wrapped inside a non-retryable
// disk.IOError, so only errors.As can see it — and a retry, recovery, or
// heal decision made any other way silently stops firing. Test files are
// exempt: asserting on message text is how tests pin attribution
// formats.
var IOErr = &Analyzer{
	Name: "ioerr",
	Doc:  "classify errors with errors.Is/As, not == or Error() string matching",
	Run: func(p *Pass) {
		errish := func(e ast.Expr) bool {
			var name string
			switch e := e.(type) {
			case *ast.Ident:
				name = e.Name
			case *ast.SelectorExpr:
				name = e.Sel.Name
			default:
				return false
			}
			return name == "err" || strings.HasSuffix(name, "Err") ||
				strings.HasSuffix(name, "Error") || strings.HasPrefix(name, "Err") ||
				strings.HasPrefix(name, "err")
		}
		isNil := func(e ast.Expr) bool {
			id, ok := e.(*ast.Ident)
			return ok && id.Name == "nil"
		}
		isErrorCall := func(e ast.Expr) bool {
			call, ok := e.(*ast.CallExpr)
			if !ok || len(call.Args) != 0 {
				return false
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "Error"
		}
		for _, f := range p.Files {
			if isTestFile(f) {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op != token.EQL && n.Op != token.NEQ {
						return true
					}
					if isNil(n.X) || isNil(n.Y) {
						return true
					}
					if errish(n.X) || errish(n.Y) {
						p.Reportf(f, n.Pos(), "error compared with %s; use errors.Is (or errors.As for typed inspection)", n.Op)
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || !stringMatchFns[sel.Sel.Name] {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "strings" {
						return true
					}
					for _, arg := range n.Args {
						if isErrorCall(arg) {
							p.Reportf(f, arg.Pos(), "error classified by Error() string matching; use errors.Is/As on the typed error")
						}
					}
				case *ast.TypeAssertExpr:
					// n.Type == nil is a type switch's x.(type) clause,
					// which names the error once and is fine.
					if n.Type != nil && errish(n.X) {
						p.Reportf(f, n.Pos(), "type assertion on an error; use errors.As so typed classification (disk.IOError, disk.IntegrityError) survives wrapping")
					}
				}
				return true
			})
		}
	},
}

// logPrintFns are the stdlib log package's printing entry points.
var logPrintFns = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true,
}

// stderrPrintFns are the fmt functions that take an io.Writer first.
var stderrPrintFns = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// ObsLog flags ad-hoc terminal output from internal packages: calls into
// the stdlib log package and fmt.Fprint* aimed at os.Stderr. Library code
// reports through the structured event log (obs.Log) or returned errors,
// so every diagnostic lands in the flight recorder and the -log-out
// stream; a stray log.Printf is invisible to both. CLIs under cmd/ own
// the terminal and are exempt, as are test files.
var ObsLog = &Analyzer{
	Name: "obslog",
	Doc:  "internal packages log through obs.Log, not the log package or stderr prints",
	Run: func(p *Pass) {
		if !strings.HasPrefix(p.PkgPath, "internal/") {
			return
		}
		isStderr := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Stderr" {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && id.Name == "os"
		}
		for _, f := range p.Files {
			if isTestFile(f) {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				if id.Name == "log" && logPrintFns[sel.Sel.Name] {
					p.Reportf(f, call.Pos(), "stdlib log call in an internal package; emit a structured event through obs.Log (or return the error)")
				}
				if id.Name == "fmt" && stderrPrintFns[sel.Sel.Name] &&
					len(call.Args) > 0 && isStderr(call.Args[0]) {
					p.Reportf(f, call.Pos(), "stderr print in an internal package; emit a structured event through obs.Log (or return the error)")
				}
				return true
			})
		}
	},
}

// obsInstruments are the registry-owned instrument types of internal/obs.
var obsInstruments = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
}

// ObsNew flags obs instrument values created outside the registry's
// constructors.
var ObsNew = &Analyzer{
	Name: "obsnew",
	Doc:  "obs instruments are created only via obs.Registry constructors",
	Run: func(p *Pass) {
		if p.PkgPath == "internal/obs" {
			return
		}
		isInstrument := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || !obsInstruments[sel.Sel.Name] {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && id.Name == "obs"
		}
		for _, f := range p.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					// A literal whose type is the instrument itself
					// (&obs.Counter{...}); container literals like
					// map[string]*obs.Counter{} are fine.
					if isInstrument(n.Type) {
						p.Reportf(f, n.Pos(), "obs instrument literal; use the Registry constructor (Counter/Gauge/Histogram)")
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 && isInstrument(n.Args[0]) {
						p.Reportf(f, n.Pos(), "obs instrument allocated with new(); use the Registry constructor")
					}
				}
				return true
			})
		}
	},
}
