package codegen

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tiling"
)

// TestPricingGolden pins every number the cost model produces on the
// paper's models: the enumerated model text, each candidate's analytic
// lower bound, its cost, memory and block check at three tile vectors
// (all ones, about a third of each range, the full ranges), the
// incumbent filter's pruned count and one plan's predicted bytes.
// Regenerate only for a deliberate change of the cost model:
// `go test ./internal/codegen -run PricingGolden -update`.
func TestPricingGolden(t *testing.T) {
	fig4 := machine.OSCItanium2()
	fig4.MemoryLimit = 1 * machine.GB
	cases := []struct {
		name      string
		prog      *loops.Program
		cfg       machine.Config
		incumbent float64
	}{
		{"two-index 35000/40000 1GB", loops.TwoIndexFused(35000, 40000), fig4, 500},
		{"four-index 140/120 2GB", loops.FourIndexAbstract(140, 120), machine.OSCItanium2(), 200},
		{"four-index 190/180 2GB", loops.FourIndexAbstract(190, 180), machine.OSCItanium2(), 600},
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, tc := range cases {
		tree, err := tiling.Tile(tc.prog)
		if err != nil {
			t.Fatal(err)
		}
		m, err := placement.Enumerate(tree, tc.cfg, placement.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := nlp.Build(m)
		fmt.Fprintf(&b, "== %s\n%s", tc.name, m.String())

		vectors := make([][]int64, 3)
		for _, x := range m.TileVars {
			n := tc.prog.Ranges[x]
			fmt.Fprintf(&b, "N%s = %d\n", x, n)
		}
		for i, frac := range []int64{0, 3, 1} {
			tiles := map[string]int64{}
			for _, x := range m.TileVars {
				tiles[x] = 1
				if frac > 0 {
					tiles[x] = (tc.prog.Ranges[x] + frac - 1) / frac
				}
			}
			vectors[i] = p.Encode(tiles, nil)
			fmt.Fprintf(&b, "x%d = %v\n", i, vectors[i][:len(m.TileVars)])
		}
		for ci, ch := range m.Choices {
			for k := range ch.Candidates {
				c := &ch.Candidates[k]
				fmt.Fprintf(&b, "%s[%d] lb %s", ch.Name, k, g(c.LowerBoundSeconds(m.Ranges)))
				for i, x := range vectors {
					fmt.Fprintf(&b, " | x%d cost %s mem %s blocks %t", i,
						g(p.CandidateCost(ci, k, x)), g(p.CandidateMemory(ci, k, x)), p.CandidateBlocksOK(ci, k, x))
				}
				b.WriteString("\n")
			}
		}

		pruned, err := placement.Enumerate(tree, tc.cfg, placement.Options{BoundIncumbent: tc.incumbent})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "BoundPruned at incumbent %s: %d\n", g(tc.incumbent), pruned.BoundPruned)

		plan, err := Generate(p, vectors[1])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "x1 with candidate 0 everywhere: predicted %s, read bytes %s, write bytes %s\n\n",
			g(plan.Predicted), g(plan.PredictedReadBytes), g(plan.PredictedWriteBytes))
	}
	golden.Check(t, filepath.Join("testdata", "pricing.golden"), []byte(b.String()))
}
