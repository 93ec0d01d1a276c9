package lint

import "testing"

// TestCheckTreeOnRepo runs every analyzer over the whole module, test
// files included: the repo must lint clean. This is the one place the
// catalog runs over the repo.
func TestCheckTreeOnRepo(t *testing.T) {
	diags, err := CheckTree("../..", Analyzers)
	if err != nil {
		t.Fatalf("CheckTree: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
