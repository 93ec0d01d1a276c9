// Package lint is a small, dependency-free static-analysis framework
// for the repo's own invariants, mirroring the shape of the go/analysis
// API (analyzers with a Run func reporting position-tagged diagnostics)
// on the standard library only — the environment this repo builds in
// has no module network access, so golang.org/x/tools is deliberately
// not depended on. The analyzers run in one place: TestCheckTreeOnRepo,
// part of `go test ./...`, checks the whole module with CheckTree.
//
// Analysis is package-level, not per-file: every pass carries full
// go/types information for its package (load.go), module-wide
// call-graph facts (facts.go), and a local tainted-path engine
// (taint.go). Type checking tolerates errors; analyzers treat a missing
// type as "unknown" and stay silent rather than guess.
//
// Findings can be suppressed with a directive on the line of (or the
// line before) the offending node:
//
//	//lint:ignore <analyzer> <reason>
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// File is one parsed source file plus its suppression directives.
type File struct {
	Fset *token.FileSet
	AST  *ast.File
	// Ignores maps line number -> analyzer names suppressed there.
	Ignores map[int]map[string]bool
}

// isTestFile reports whether a parsed file is a _test.go file.
func isTestFile(f *File) bool {
	return strings.HasSuffix(f.Fset.Position(f.AST.Pos()).Filename, "_test.go")
}

// Pass is the per-package unit of work handed to each analyzer.
type Pass struct {
	// PkgName is the package's declared name ("exec").
	PkgName string
	// PkgPath is a slash path identifying the package ("internal/exec");
	// derived from the directory, it is what path-scoped analyzers match.
	PkgPath string
	Files   []*File

	// Info holds the package's type information: whatever resolved,
	// since type checking tolerates errors.
	Info *types.Info
	// Facts is the module-wide fact base (call-graph wall-clock
	// reachability).
	Facts *Facts

	analyzer string
	out      *[]Diagnostic
}

// Reportf records a finding unless a matching //lint:ignore directive
// covers its line (or the line above it).
func (p *Pass) Reportf(f *File, pos token.Pos, format string, args ...interface{}) {
	position := f.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		if names := f.Ignores[line]; names[p.analyzer] || names["*"] {
			return
		}
	}
	*p.out = append(*p.out, Diagnostic{
		Pos:      position,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// ParseFile parses one source file and collects its ignore directives.
func ParseFile(fset *token.FileSet, path string, src []byte) (*File, error) {
	af, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	f := &File{Fset: fset, AST: af, Ignores: map[int]map[string]bool{}}
	for _, cg := range af.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "lint:ignore") {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
			if len(fields) == 0 {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if f.Ignores[line] == nil {
				f.Ignores[line] = map[string]bool{}
			}
			f.Ignores[line][fields[0]] = true
		}
	}
	return f, nil
}

// CheckTree analyzes every package of the module rooted at root
// (skipping testdata and hidden directories; test files included) with
// full type information and module-wide facts.
func CheckTree(root string, analyzers []*Analyzer) ([]Diagnostic, error) {
	m, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, u := range m.Units() {
		p := Pass{PkgName: u.PkgName, PkgPath: u.PkgPath, Files: u.Files, Info: m.Check(u), Facts: m.Facts(), out: &out}
		for _, a := range analyzers {
			pass := p
			pass.analyzer = a.Name
			a.Run(&pass)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
