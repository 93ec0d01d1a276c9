package lint

import (
	"go/token"
	"strings"
	"testing"
)

// check parses src as a single file of the package identified by pkgPath
// and runs every analyzer over it.
func check(t *testing.T, pkgPath, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := ParseFile(fset, "src.go", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return CheckFiles(f.AST.Name.Name, pkgPath, []*File{f}, Analyzers)
}

func wantDiag(t *testing.T, diags []Diagnostic, analyzer, substr string) {
	t.Helper()
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Fatalf("no %s diagnostic containing %q in %v", analyzer, substr, diags)
}

func wantNone(t *testing.T, diags []Diagnostic, analyzer string) {
	t.Helper()
	for _, d := range diags {
		if d.Analyzer == analyzer {
			t.Fatalf("unexpected %s diagnostic: %v", analyzer, d)
		}
	}
}

func TestDiskStats(t *testing.T) {
	src := `package exec
func bump(d *Disk) {
	d.Stats.ReadOps++
	d.Stats.BytesRead += 4096
	d.Stats.WriteTime = 0
}
`
	diags := check(t, "internal/exec", src)
	if n := countBy(diags, "diskstats"); n != 3 {
		t.Fatalf("want 3 diskstats diagnostics, got %d: %v", n, diags)
	}
	wantDiag(t, diags, "diskstats", "direct mutation")

	// The same code inside internal/disk is the implementation, not a
	// violation.
	wantNone(t, check(t, "internal/disk", strings.Replace(src, "package exec", "package disk", 1)), "diskstats")

	// Reads of the fields are fine anywhere.
	wantNone(t, check(t, "internal/exec", `package exec
func read(d *Disk) int64 { return d.Stats.BytesRead }
`), "diskstats")

	// := defines a new variable; not a Stats mutation.
	wantNone(t, check(t, "internal/exec", `package exec
func ok() { x := 1; _ = x }
`), "diskstats")
}

func TestCtxField(t *testing.T) {
	src := `package exec
import "context"
type engine struct {
	ctx context.Context
	n   int
}
`
	wantDiag(t, check(t, "internal/exec", src), "ctxfield", "stored in a struct")

	wantNone(t, check(t, "internal/exec", `package exec
import "context"
func run(ctx context.Context) error { return ctx.Err() }
`), "ctxfield")
}

func TestCtxFieldIgnoreDirective(t *testing.T) {
	src := `package exec
import "context"
type engine struct {
	//lint:ignore ctxfield the engine is a per-call object, not a long-lived one
	ctx context.Context
}
`
	wantNone(t, check(t, "internal/exec", src), "ctxfield")

	// A directive for a different analyzer does not suppress it.
	src2 := strings.Replace(src, "lint:ignore ctxfield", "lint:ignore diskstats", 1)
	wantDiag(t, check(t, "internal/exec", src2), "ctxfield", "stored in a struct")

	// The wildcard suppresses everything on the line.
	src3 := strings.Replace(src, "lint:ignore ctxfield", "lint:ignore *", 1)
	wantNone(t, check(t, "internal/exec", src3), "ctxfield")
}

func TestErrPrefix(t *testing.T) {
	bad := `package tce
import "fmt"
func Parse(s string) error {
	return fmt.Errorf("bad input %q", s)
}
`
	wantDiag(t, check(t, "internal/tce", bad), "errprefix", `"tce: "`)

	good := strings.Replace(bad, `"bad input %q"`, `"tce: bad input %q"`, 1)
	wantNone(t, check(t, "internal/tce", good), "errprefix")

	// Unexported helpers are wrapped at the exported boundary; exempt.
	wantNone(t, check(t, "internal/tce", `package tce
import "fmt"
func parse(s string) error { return fmt.Errorf("bad input %q", s) }
`), "errprefix")

	// Non-internal packages (cmd/*) are out of scope.
	wantNone(t, check(t, "cmd/oocrun", strings.Replace(bad, "package tce", "package main", 1)), "errprefix")

	// Non-literal formats can't be checked statically; skipped.
	wantNone(t, check(t, "internal/tce", `package tce
import "fmt"
func Fail(msg string) error { return fmt.Errorf(msg) }
`), "errprefix")

	// errors.New is held to the same rule.
	wantDiag(t, check(t, "internal/tce", `package tce
import "errors"
func Explode() error { return errors.New("boom") }
`), "errprefix", `"tce: "`)
}

func TestObsNew(t *testing.T) {
	wantDiag(t, check(t, "internal/exec", `package exec
import "repro/internal/obs"
var c = &obs.Counter{}
`), "obsnew", "Registry constructor")

	wantDiag(t, check(t, "internal/exec", `package exec
import "repro/internal/obs"
var c = new(obs.Counter)
`), "obsnew", "Registry constructor")

	// Container literals of instrument pointers are fine.
	wantNone(t, check(t, "internal/exec", `package exec
import "repro/internal/obs"
var m = map[string]*obs.Counter{}
`), "obsnew")

	// The obs package itself constructs its own instruments.
	wantNone(t, check(t, "internal/obs", `package obs
type Counter struct{}
func x() *Counter { return &Counter{} }
`), "obsnew")
}

func TestCheckTreeOnRepo(t *testing.T) {
	// The repo itself must lint clean; this is the same invariant CI's
	// vettool job enforces, kept here so `go test ./...` catches drift
	// without the ooclint binary.
	diags, err := CheckTree("../..", Analyzers)
	if err != nil {
		t.Fatalf("CheckTree: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func countBy(diags []Diagnostic, analyzer string) int {
	n := 0
	for _, d := range diags {
		if d.Analyzer == analyzer {
			n++
		}
	}
	return n
}

func TestIOErr(t *testing.T) {
	src := `package exec
import "strings"
func classify(err error, sentinel error) bool {
	if err == sentinel {
		return true
	}
	if strings.Contains(err.Error(), "transient") {
		return true
	}
	return strings.HasPrefix(err.Error(), "disk: ")
}
`
	diags := check(t, "internal/exec", src)
	if n := countBy(diags, "ioerr"); n != 3 {
		t.Fatalf("want 3 ioerr diagnostics, got %d: %v", n, diags)
	}
	wantDiag(t, diags, "ioerr", "errors.Is")
	wantDiag(t, diags, "ioerr", "string matching")

	// Sentinel comparisons against package-level Err values are the same
	// antipattern, on either side and with !=.
	wantDiag(t, check(t, "internal/fault", `package fault
var ErrInjected error
func bad(e error) bool { return ErrInjected != e }
`), "ioerr", "errors.Is")

	// Nil checks are the idiom, not classification.
	wantNone(t, check(t, "internal/exec", `package exec
func ok(err error) bool { return err != nil || nil == err }
`), "ioerr")

	// Error() used for display, and strings matching on non-error text,
	// are both fine.
	wantNone(t, check(t, "internal/exec", `package exec
import ("fmt"; "strings")
func show(err error, s string) string {
	if strings.Contains(s, "x") {
		return fmt.Sprintf("failed: %s", err.Error())
	}
	return err.Error()
}
`), "ioerr")

	// Comparisons of non-error-shaped values are out of scope.
	wantNone(t, check(t, "internal/exec", `package exec
func cmp(a, b int) bool { return a == b }
`), "ioerr")
}

func TestIOErrTypeAssert(t *testing.T) {
	// A direct type assertion on an error-shaped value misses wrapped
	// errors (disk.IntegrityError always arrives inside an IOError).
	diags := check(t, "internal/exec", `package exec
type IntegrityError struct{}
func (*IntegrityError) Error() string { return "" }
func classify(err error) bool {
	_, ok := err.(*IntegrityError)
	return ok
}
`)
	wantDiag(t, diags, "ioerr", "errors.As")

	// Type switches name the error once per arm; they are not flagged.
	wantNone(t, check(t, "internal/exec", `package exec
func kind(err error) int {
	switch err.(type) {
	case nil:
		return 0
	default:
		return 1
	}
}
`), "ioerr")

	// Assertions on non-error-shaped values (capability probes) are the
	// backbone of the disk wrapper chain and are out of scope.
	wantNone(t, check(t, "internal/disk", `package disk
type Syncer interface{ Sync() error }
func probe(be interface{}) bool {
	_, ok := be.(Syncer)
	return ok
}
`), "ioerr")
}

func TestObsLog(t *testing.T) {
	src := `package exec
import (
	"fmt"
	"log"
	"os"
)
func report(err error) {
	log.Printf("retry failed: %v", err)
	fmt.Fprintf(os.Stderr, "retry failed: %v\n", err)
}
`
	diags := check(t, "internal/exec", src)
	if n := countBy(diags, "obslog"); n != 2 {
		t.Fatalf("want 2 obslog diagnostics, got %d: %v", n, diags)
	}
	wantDiag(t, diags, "obslog", "structured event")

	// CLIs own the terminal.
	wantNone(t, check(t, "cmd/oocrun", strings.Replace(src, "package exec", "package main", 1)), "obslog")

	// Prints to other writers are not terminal output.
	wantNone(t, check(t, "internal/exec", `package exec
import (
	"fmt"
	"io"
)
func dump(w io.Writer) { fmt.Fprintf(w, "ok\n") }
`), "obslog")

	// An ignore directive with a reason suppresses the finding.
	wantNone(t, check(t, "internal/cliutil", `package cliutil
import (
	"fmt"
	"os"
)
func fatal(err error) {
	//lint:ignore obslog the CLI fatal path prints for the operator
	fmt.Fprintf(os.Stderr, "%v\n", err)
}
`), "obslog")
}

func TestMinMax(t *testing.T) {
	diags := check(t, "internal/exec", `package exec
func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
`)
	wantDiag(t, diags, "minmax", "reimplements a builtin")

	// Shadowing the builtin by name is just as banned.
	wantDiag(t, check(t, "internal/ring", `package ring
func max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
`), "minmax", "reimplements a builtin")

	// Methods and unrelated helpers are fine.
	wantNone(t, check(t, "internal/exec", `package exec
type clamp struct{}
func (clamp) min64(a, b int64) int64 { return a }
func minimize(a, b int64) int64 { return min(a, b) }
`), "minmax")
}
