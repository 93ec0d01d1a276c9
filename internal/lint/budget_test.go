package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// readBudget parses lint-budget.txt: "<analyzer> <count>" lines,
// '#' comments.
func readBudget(t *testing.T, path string) map[string]int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read budget: %v", err)
	}
	budget := map[string]int{}
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s:%d: want \"<analyzer> <count>\", got %q", path, i+1, line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			t.Fatalf("%s:%d: bad count %q", path, i+1, fields[1])
		}
		budget[fields[0]] = n
	}
	return budget
}

// TestIgnoreBudget ratchets the //lint:ignore directive count against
// the committed lint-budget.txt: every directive must name a known
// analyzer, and the per-analyzer counts must match the budget exactly —
// new ignores need a reviewed budget bump, removed ignores must lower
// it.
func TestIgnoreBudget(t *testing.T) {
	root := filepath.Join("..", "..")
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"*": true}
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	count := map[string]int{}
	for _, u := range m.Units() {
		for _, f := range u.Files {
			for line, names := range f.Ignores {
				for name := range names {
					if !known[name] {
						pos := fmt.Sprintf("%s:%d", m.Fset.Position(f.AST.Pos()).Filename, line)
						t.Errorf("%s: //lint:ignore names unknown analyzer %q", pos, name)
						continue
					}
					count[name]++
				}
			}
		}
	}
	budget := readBudget(t, filepath.Join(root, "lint-budget.txt"))
	for name, want := range budget {
		if got := count[name]; got != want {
			t.Errorf("analyzer %s: %d //lint:ignore directives in tree, budget says %d (update lint-budget.txt with a reviewed reason)", name, got, want)
		}
	}
	for name, got := range count {
		if _, ok := budget[name]; !ok {
			t.Errorf("analyzer %s: %d //lint:ignore directives in tree but no lint-budget.txt line", name, got)
		}
	}
}
