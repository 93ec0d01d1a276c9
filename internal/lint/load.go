package lint

// Package loading and type checking. The framework upgrades the
// per-file AST walks of the original lint package into package-level
// analysis with full go/types information, still on the standard
// library alone: golang.org/x/tools (go/packages, unitchecker) is
// deliberately not depended on, so the repo keeps its zero-dependency
// build. Two importers stand in for the toolchain:
//
//   - module packages ("repro/...") are type-checked from source under
//     the module root, with function bodies, because the module-wide
//     call-graph facts need them;
//   - everything else resolves against GOROOT/src through
//     go/build.ImportDir (which applies build constraints), checked
//     without function bodies — only the exported shape matters.
//
// Type checking is deliberately error-tolerant: a dependency that does
// not fully check (cgo-backed corners of net, say) still yields a
// usable *types.Package, and analyzers treat missing type info as
// "unknown", never as a finding.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one analysis unit: the files of one package clause in one
// directory. A directory with in-package tests yields a single unit
// (sources plus _test.go files); an external test package (package
// foo_test) is its own unit.
type Unit struct {
	// PkgName is the declared package name ("exec", "exec_test").
	PkgName string
	// PkgPath is the module-relative slash path of the directory
	// ("internal/exec"); it is what path-scoped analyzers match.
	PkgPath string
	Files   []*File
}

// depPkg is a module package loaded as a dependency: no test files,
// full function bodies (the facts layer walks them).
type depPkg struct {
	path    string // module-relative ("internal/obs")
	files   []*File
	pkg     *types.Package
	info    *types.Info
	loading bool
}

// Module is a loaded source tree: every package under one module root,
// parsed once, type-checked on demand, plus the module-wide facts the
// cross-package analyzers consume.
type Module struct {
	Fset *token.FileSet
	// Root is the module root directory (the go.mod location).
	Root string
	// Path is the module path from go.mod ("repro").
	Path string

	units []*Unit

	deps   map[string]*depPkg        // module deps by module-relative path
	stdlib map[string]*types.Package // GOROOT packages by import path
	facts  *Facts
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// LoadModule parses every package under root (skipping testdata,
// vendor, and hidden directories) into analysis units. Type checking
// happens lazily, per unit and per dependency.
func LoadModule(root string) (*Module, error) {
	m := &Module{
		Fset:   token.NewFileSet(),
		Root:   root,
		deps:   map[string]*depPkg{},
		stdlib: map[string]*types.Package{},
	}
	if gomod, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
		m.Path = modulePath(gomod)
	}
	byDir := map[string][]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			name := info.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		byDir[dir] = append(byDir[dir], path)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	dirs := make([]string, 0, len(byDir))
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		sort.Strings(byDir[dir])
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			rel = dir
		}
		units, err := m.parseUnits(filepath.ToSlash(rel), byDir[dir])
		if err != nil {
			return nil, err
		}
		m.units = append(m.units, units...)
	}
	return m, nil
}

// Units returns every analysis unit in deterministic order.
func (m *Module) Units() []*Unit { return m.units }

// parseUnits parses one directory's files and groups them by package
// clause (sources and in-package tests together, external test
// packages apart).
func (m *Module) parseUnits(pkgPath string, goFiles []string) ([]*Unit, error) {
	byName := map[string]*Unit{}
	var order []string
	for _, path := range goFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		f, err := ParseFile(m.Fset, path, src)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		name := f.AST.Name.Name
		u := byName[name]
		if u == nil {
			u = &Unit{PkgName: name, PkgPath: pkgPath}
			byName[name] = u
			order = append(order, name)
		}
		u.Files = append(u.Files, f)
	}
	sort.Strings(order)
	units := make([]*Unit, 0, len(order))
	for _, name := range order {
		units = append(units, byName[name])
	}
	return units, nil
}

// typeInfo allocates the info maps an analysis pass consumes.
func typeInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// Check type-checks one unit, tolerating errors: the returned info
// carries whatever resolved. Analyzers must treat absent type info as
// unknown.
func (m *Module) Check(u *Unit) *types.Info {
	info := typeInfo()
	conf := types.Config{
		Importer:    importerFunc(m.importPath),
		Error:       func(error) {},
		FakeImportC: true,
	}
	asts := make([]*ast.File, len(u.Files))
	for i, f := range u.Files {
		asts[i] = f.AST
	}
	importPath := u.PkgPath
	if m.Path != "" {
		importPath = m.Path + "/" + u.PkgPath
	}
	if strings.HasSuffix(u.PkgName, "_test") {
		importPath += "_test"
	}
	conf.Check(importPath, m.Fset, asts, info)
	return info
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importPath resolves one import for the type checker: module packages
// from source under the root, the rest from GOROOT.
func (m *Module) importPath(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if m.Path != "" && (path == m.Path || strings.HasPrefix(path, m.Path+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, m.Path), "/")
		if rel == "" {
			rel = "."
		}
		dep, err := m.loadDep(rel)
		if err != nil {
			return nil, err
		}
		return dep.pkg, nil
	}
	return m.importStdlib(path)
}

// loadDep type-checks a module package as a dependency: non-test files
// only (test-only import edges may not be acyclic), full function
// bodies (the facts layer needs them). Results are memoized.
func (m *Module) loadDep(rel string) (*depPkg, error) {
	if dep, ok := m.deps[rel]; ok {
		if dep.loading {
			return nil, fmt.Errorf("lint: import cycle through %q", rel)
		}
		return dep, nil
	}
	dep := &depPkg{path: rel, loading: true}
	m.deps[rel] = dep
	defer func() { dep.loading = false }()

	dir := filepath.Join(m.Root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var asts []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		f, err := ParseFile(m.Fset, filepath.Join(dir, name), src)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		dep.files = append(dep.files, f)
		asts = append(asts, f.AST)
	}
	if len(asts) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %q", rel)
	}
	dep.info = typeInfo()
	conf := types.Config{
		Importer:    importerFunc(m.importPath),
		Error:       func(error) {},
		FakeImportC: true,
	}
	importPath := rel
	if m.Path != "" {
		importPath = m.Path + "/" + rel
	}
	dep.pkg, _ = conf.Check(importPath, m.Fset, asts, dep.info)
	return dep, nil
}

// importStdlib type-checks a GOROOT package from source, without
// function bodies, applying build constraints via go/build. Errors in
// cgo-backed corners are tolerated; the exported shape is what
// analyzers resolve against.
func (m *Module) importStdlib(path string) (*types.Package, error) {
	if pkg, ok := m.stdlib[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		return pkg, nil
	}
	m.stdlib[path] = nil // cycle guard
	dir := filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(path))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: stdlib %q: %w", path, err)
	}
	var asts []*ast.File
	for _, name := range bp.GoFiles {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		af, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), src, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		asts = append(asts, af)
	}
	if len(asts) == 0 {
		return nil, fmt.Errorf("lint: stdlib %q: no Go files", path)
	}
	conf := types.Config{
		Importer:         importerFunc(m.importPath),
		Error:            func(error) {},
		FakeImportC:      true,
		IgnoreFuncBodies: true,
	}
	pkg, _ := conf.Check(path, m.Fset, asts, nil)
	if pkg == nil {
		return nil, fmt.Errorf("lint: stdlib %q did not check", path)
	}
	m.stdlib[path] = pkg
	return pkg, nil
}
