package lint

// Module-wide facts: cross-function, cross-package information the
// package-local analyzers cannot see. Facts are computed once per
// module from the dependency variants of every package (non-test
// files, full bodies) and keyed symbolically — types.Func.FullName for
// functions — so they stay valid across independent type-checker runs
// (every analysis unit is checked separately from its dependencies).
//
// The one fact family is wall-clock reachability: for every module
// function, whether a banned wall-clock call (time.Now, time.Since,
// timers, tickers) is reachable through the static call graph, and
// through which call chain. Edges into the sanctioned wall-clock layer
// (the telemetry packages: obs, trace, cliutil) do not propagate — the
// event log is allowed to stamp wall time; the solver is not allowed to
// read it.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// wallClockFns are the time-package entry points that read or schedule
// against the wall clock. time.Sleep is included: a deterministic path
// that blocks on real time is still nondeterministic in effect.
var wallClockFns = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Sleep": true,
}

// wallClockAllowed are the module packages sanctioned to touch the
// wall clock: the telemetry plane (event timestamps, sampler ticks,
// status pages) and the CLI layer. Calls into them never propagate
// wall-clock taint to their callers.
var wallClockAllowed = map[string]bool{
	"internal/obs":         true,
	"internal/obs/statusz": true,
	"internal/trace":       true,
	"internal/cliutil":     true,
}

// wallTaint records why one function is wall-clock tainted.
type wallTaint struct {
	// callee is the tainted callee ("time.Now" for a direct call, a
	// function key for a transitive one).
	callee string
	// pos is the offending call site inside the function.
	pos token.Position
}

// funcFacts is the per-function slice of the call graph.
type funcFacts struct {
	key     string
	pkgPath string // module-relative
	// edges maps callee key -> first call position.
	edges map[string]token.Position
}

// Facts is the module-wide fact base handed to every pass.
type Facts struct {
	// modPath is the module path, stripped from keys in diagnostics.
	modPath string
	// wall maps function key -> taint record for every module function
	// from which a wall-clock call is reachable.
	wall map[string]wallTaint
	// funcs holds the call-graph slice per function key.
	funcs map[string]*funcFacts
}

// funcKey returns the symbolic key of a function or method, stable
// across type-checker instances ("repro/internal/dcs.Run",
// "(*repro/internal/obs.CounterVec).With").
func funcKey(fn *types.Func) string { return fn.FullName() }

// callee resolves the static callee of a call expression, or nil for
// dynamic calls (function values, interface methods without a static
// target) and builtins.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Facts computes (and memoizes) the module-wide fact base.
func (m *Module) Facts() *Facts {
	if m.facts != nil {
		return m.facts
	}
	f := &Facts{modPath: m.Path, wall: map[string]wallTaint{}, funcs: map[string]*funcFacts{}}
	m.facts = f

	// Load every module package as a dependency so the graph is
	// complete; packages that fail to load simply contribute nothing.
	seen := map[string]bool{}
	for _, u := range m.Units() {
		if seen[u.PkgPath] || strings.HasSuffix(u.PkgName, "_test") {
			continue
		}
		seen[u.PkgPath] = true
		_, _ = m.loadDep(u.PkgPath)
	}

	// Per-function direct facts.
	direct := map[string]wallTaint{}
	paths := make([]string, 0, len(m.deps))
	for rel := range m.deps {
		paths = append(paths, rel)
	}
	sort.Strings(paths)
	for _, rel := range paths {
		dep := m.deps[rel]
		if dep == nil || dep.pkg == nil || dep.info == nil {
			continue
		}
		for _, file := range dep.files {
			m.factsFromFile(f, dep, file, direct)
		}
	}

	// Propagate wall-clock taint to a fixed point over the call graph.
	// Functions in sanctioned packages are never tainted, and edges
	// into them do not carry taint.
	for k, t := range direct {
		f.wall[k] = t
	}
	for changed := true; changed; {
		changed = false
		for _, ff := range f.funcs {
			if _, tainted := f.wall[ff.key]; tainted || wallClockAllowed[ff.pkgPath] {
				continue
			}
			for calleeKey, pos := range ff.edges {
				cf := f.funcs[calleeKey]
				if cf == nil || wallClockAllowed[cf.pkgPath] {
					continue
				}
				if _, ok := f.wall[calleeKey]; ok {
					f.wall[ff.key] = wallTaint{callee: calleeKey, pos: pos}
					changed = true
					break
				}
			}
		}
	}
	return f
}

// factsFromFile collects one file's contribution: call edges and
// direct wall-clock calls.
func (m *Module) factsFromFile(f *Facts, dep *depPkg, file *File, direct map[string]wallTaint) {
	for _, decl := range file.AST.Decls {
		d, ok := decl.(*ast.FuncDecl)
		if !ok || d.Body == nil {
			continue
		}
		fn, _ := dep.info.Defs[d.Name].(*types.Func)
		if fn == nil {
			continue
		}
		key := funcKey(fn)
		ff := &funcFacts{key: key, pkgPath: dep.path, edges: map[string]token.Position{}}
		f.funcs[key] = ff
		ast.Inspect(d.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			cf := callee(dep.info, call)
			if cf == nil || cf.Pkg() == nil {
				return true
			}
			pos := m.Fset.Position(call.Pos())
			if cf.Pkg().Path() == "time" && wallClockFns[cf.Name()] {
				if _, ok := direct[key]; !ok && !wallClockAllowed[dep.path] {
					direct[key] = wallTaint{callee: "time." + cf.Name(), pos: pos}
				}
				return true
			}
			ck := funcKey(cf)
			if _, ok := ff.edges[ck]; !ok {
				ff.edges[ck] = pos
			}
			return true
		})
	}
}

// WallClock reports whether a wall-clock call is reachable from the
// function with the given key, with a human-readable chain ("dcs.solve
// → disk.sleep → time.Sleep") for the diagnostic.
func (f *Facts) WallClock(key string) (chain string, pos token.Position, ok bool) {
	t, tainted := f.wall[key]
	if !tainted {
		return "", token.Position{}, false
	}
	parts := []string{f.trimKey(key)}
	pos = t.pos
	for hops := 0; hops < 32; hops++ {
		parts = append(parts, f.trimKey(t.callee))
		next, ok := f.wall[t.callee]
		if !ok {
			break
		}
		t = next
	}
	return strings.Join(parts, " → "), pos, true
}

// trimKey shortens a function key for diagnostics by dropping the
// module path prefix.
func (f *Facts) trimKey(key string) string {
	if f.modPath == "" {
		return key
	}
	return strings.ReplaceAll(key, f.modPath+"/", "")
}
