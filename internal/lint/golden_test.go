package lint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

// fixtureRoot is the fixture module: one package per path scope the
// analyzers match (internal/exec, internal/disk, cmd/oocrun, ...).
var fixtureRoot = filepath.Join("testdata", "src", "fixmod")

// fixtureDiags runs every analyzer over the fixture module and renders
// the diagnostics with root-relative filenames.
func fixtureDiags(t *testing.T) ([]Diagnostic, string) {
	t.Helper()
	diags, err := CheckTree(fixtureRoot, Analyzers)
	if err != nil {
		t.Fatalf("CheckTree(%s): %v", fixtureRoot, err)
	}
	var b strings.Builder
	for _, d := range diags {
		rel, err := filepath.Rel(fixtureRoot, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		fmt.Fprintf(&b, "%s:%d:%d: %s (%s)\n",
			filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	return diags, b.String()
}

// TestFixtureModule pins every analyzer's diagnostics over the fixture
// module to the committed golden file: each analyzer must fire on the
// bad declarations and stay silent on the good ones. Rewrite the
// golden file with: go test ./internal/lint/ -run TestFixtureModule -update
func TestFixtureModule(t *testing.T) {
	_, got := fixtureDiags(t)
	golden.Check(t, filepath.Join("testdata", "golden", "fixmod.txt"), []byte(got))
}

// TestFixtureCoversNewAnalyzers guards against an analyzer going inert
// or firing where it must not: on the fixture module each analyzer must
// report at least one finding, and must stay silent on at least one
// declaration, marked by an "ok: <analyzer>" line in its doc comment.
func TestFixtureCoversNewAnalyzers(t *testing.T) {
	diags, _ := fixtureDiags(t)
	m, err := LoadModule(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	okDecls := map[string][]ast.Decl{}
	for _, u := range m.Units() {
		for _, f := range u.Files {
			for _, decl := range f.AST.Decls {
				var doc *ast.CommentGroup
				switch d := decl.(type) {
				case *ast.FuncDecl:
					doc = d.Doc
				case *ast.GenDecl:
					doc = d.Doc
				}
				for _, line := range strings.Split(doc.Text(), "\n") {
					if name, ok := strings.CutPrefix(line, "ok: "); ok {
						okDecls[name] = append(okDecls[name], decl)
					}
				}
			}
		}
	}
	for _, a := range Analyzers {
		t.Run(a.Name, func(t *testing.T) {
			if len(okDecls[a.Name]) == 0 {
				t.Errorf("no declaration is marked \"ok: %s\"", a.Name)
			}
			fired := false
			for _, d := range diags {
				if d.Analyzer != a.Name {
					continue
				}
				fired = true
				for _, decl := range okDecls[a.Name] {
					from, to := m.Fset.Position(decl.Pos()), m.Fset.Position(decl.End())
					if d.Pos.Filename == from.Filename && from.Line <= d.Pos.Line && d.Pos.Line <= to.Line {
						t.Errorf("finding in a declaration marked ok: %s", d)
					}
				}
			}
			if !fired {
				t.Error("no finding on the fixture module")
			}
		})
		delete(okDecls, a.Name)
	}
	for name := range okDecls {
		t.Errorf("declarations marked ok for unknown analyzer %q", name)
	}
}

// fixtureFindings runs the analyzers over the fixture module once and
// returns a lookup of one analyzer's findings inside the declaration
// named name in the package at pkgPath.
func fixtureFindings(t *testing.T) func(pkgPath, name, analyzer string) []Diagnostic {
	t.Helper()
	diags, _ := fixtureDiags(t)
	m, err := LoadModule(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	return func(pkgPath, name, analyzer string) []Diagnostic {
		t.Helper()
		var decl ast.Decl
		for _, u := range m.Units() {
			if u.PkgPath != pkgPath {
				continue
			}
			for _, f := range u.Files {
				for _, d := range f.AST.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						if d.Name.Name == name {
							decl = d
						}
					case *ast.GenDecl:
						for _, s := range d.Specs {
							if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name == name {
								decl = d
							}
						}
					}
				}
			}
		}
		if decl == nil {
			t.Fatalf("no declaration %s in fixture package %s", name, pkgPath)
		}
		from, to := m.Fset.Position(decl.Pos()), m.Fset.Position(decl.End())
		var out []Diagnostic
		for _, d := range diags {
			if d.Analyzer == analyzer && d.Pos.Filename == from.Filename &&
				from.Line <= d.Pos.Line && d.Pos.Line <= to.Line {
				out = append(out, d)
			}
		}
		return out
	}
}

// TestCtxFieldIgnoreDirective checks the //lint:ignore directive: one
// naming the analyzer, or the wildcard, suppresses the finding on its
// line; one naming another analyzer does not.
func TestCtxFieldIgnoreDirective(t *testing.T) {
	findingsIn := fixtureFindings(t)
	for _, name := range []string{"perCall", "anyName"} {
		if got := findingsIn("internal/exec", name, "ctxfield"); len(got) != 0 {
			t.Errorf("%s: suppressed finding reported: %v", name, got)
		}
	}
	got := findingsIn("internal/exec", "otherName", "ctxfield")
	if len(got) != 1 || !strings.Contains(got[0].Message, "stored in a struct") {
		t.Errorf("otherName: want one ctxfield finding, got %v", got)
	}
}

// TestIOErrTypeAssert checks ioerr on type assertions: a direct
// assertion on an error misses wrapped errors and is flagged; a type
// switch, and a capability probe on a non-error value, are not.
func TestIOErrTypeAssert(t *testing.T) {
	findingsIn := fixtureFindings(t)
	got := findingsIn("internal/exec", "integrity", "ioerr")
	if len(got) != 1 || !strings.Contains(got[0].Message, "errors.As") {
		t.Errorf("integrity: want one errors.As finding, got %v", got)
	}
	if got := findingsIn("internal/exec", "kind", "ioerr"); len(got) != 0 {
		t.Errorf("kind: type switch flagged: %v", got)
	}
	if got := findingsIn("internal/disk", "Probe", "ioerr"); len(got) != 0 {
		t.Errorf("Probe: capability probe flagged: %v", got)
	}
}
