package figures

import (
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// TestGoldenFigures snapshots every figure against testdata/*.golden;
// regenerate with `go test ./internal/figures -run Golden -update`.
func TestGoldenFigures(t *testing.T) {
	fig3, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := Figure4(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"fig1.golden": Figure1(),
		"fig2.golden": Figure2(),
		"fig3.golden": fig3,
		"fig4.golden": fig4,
		"fig5.golden": Figure5(),
	}
	for name, got := range cases {
		golden.Check(t, filepath.Join("testdata", name), []byte(got))
	}
}
