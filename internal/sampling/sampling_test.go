package sampling

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dcs"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tiling"
)

func buildProblem(t *testing.T, prog *loops.Program, cfg machine.Config) *nlp.Problem {
	t.Helper()
	tree, err := tiling.Tile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return nlp.Build(m)
}

func fig4Problem(t *testing.T) *nlp.Problem {
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 1 * machine.GB
	return buildProblem(t, loops.TwoIndexFused(35000, 40000), cfg)
}

func TestSearchFindsFeasible(t *testing.T) {
	p := fig4Problem(t)
	res, err := Search(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(res.X) {
		t.Fatalf("sampling result infeasible: violations %v", p.Violations(res.X))
	}
	if res.Objective <= 0 {
		t.Fatalf("objective = %g", res.Objective)
	}
	if res.FeasibleCombos == 0 || res.Combos < res.FeasibleCombos {
		t.Fatalf("combo counts wrong: %d/%d", res.FeasibleCombos, res.Combos)
	}
}

func TestSearchObjectiveMatchesSelection(t *testing.T) {
	p := fig4Problem(t)
	res, err := Search(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The λ-encoded vector must reproduce the greedy selection's cost.
	if got := p.Objective(res.X); got != res.Objective {
		t.Fatalf("Objective(X) = %g, selection objective = %g", got, res.Objective)
	}
}

func TestMaxCombosWidensGrid(t *testing.T) {
	p := fig4Problem(t)
	full, err := Search(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Search(context.Background(), p, Options{MaxCombos: 500})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Combos > 500 {
		t.Fatalf("capped search used %d combos", capped.Combos)
	}
	if capped.GridFactor <= full.GridFactor {
		t.Fatalf("grid factor did not widen: %d vs %d", capped.GridFactor, full.GridFactor)
	}
	// A denser grid can only be equal or better.
	if full.Objective > capped.Objective+1e-9 {
		t.Fatalf("denser grid worse: %g vs %g", full.Objective, capped.Objective)
	}
}

func TestDCSBeatsOrMatchesSampling(t *testing.T) {
	// Table 3's qualitative result: the DCS code is at least as good as
	// the uniform-sampling code (it explores placements jointly and tiles
	// off-grid).
	p := fig4Problem(t)
	samp, err := Search(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := dcs.Run(context.Background(), p, dcs.WithSeed(1), dcs.WithBudget(150000))
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("DCS found no feasible point")
	}
	if sol.Objective > samp.Objective*1.05 {
		t.Fatalf("DCS objective %.3f worse than sampling %.3f", sol.Objective, samp.Objective)
	}
}

func TestSearchInfeasibleModel(t *testing.T) {
	// A memory limit that admits placements at tile-one but no
	// configuration satisfying the (huge) min-block constraint.
	cfg := machine.Small(64 * 1024)
	cfg.Disk.MinReadBlock = 1 << 40
	cfg.Disk.MinWriteBlock = 1 << 40
	p := buildProblem(t, loops.TwoIndexFused(64, 64), cfg)
	if _, err := Search(context.Background(), p, Options{}); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestDescribe(t *testing.T) {
	p := fig4Problem(t)
	res, err := Search(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Describe(p)
	if len(s) == 0 {
		t.Fatal("empty description")
	}
}

func TestGridCoversFullRange(t *testing.T) {
	p := fig4Problem(t)
	grids := buildGrids(p, 2)
	for i, g := range grids {
		if g[0] != 1 {
			t.Fatalf("grid %d does not start at 1: %v", i, g)
		}
		if g[len(g)-1] != p.Ranges[i] {
			t.Fatalf("grid %d does not end at N: %v", i, g)
		}
		for j := 1; j < len(g); j++ {
			if g[j] <= g[j-1] {
				t.Fatalf("grid %d not increasing: %v", i, g)
			}
		}
	}
}

// expiring is a context whose deadline passes after its first n looks.
type expiring struct{ n int64 }

func (*expiring) Deadline() (time.Time, bool) { return time.Time{}, false }
func (*expiring) Done() <-chan struct{}       { return nil }
func (*expiring) Value(any) any               { return nil }

func (c *expiring) Err() error {
	if c.n == 0 {
		return context.DeadlineExceeded
	}
	c.n--
	return nil
}

// TestSearchHonoursContext: a search whose context is already cancelled
// returns at once with an error wrapping context.Canceled; a deadline
// that passes mid-search returns the best feasible point of the part
// searched.
func TestSearchHonoursContext(t *testing.T) {
	p := buildProblem(t, loops.FourIndexAbstract(140, 120), machine.OSCItanium2())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := Search(ctx, p, Options{GridFactor: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled search: err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > time.Second || res.Combos != 0 {
		t.Fatalf("pre-cancelled search evaluated %d combinations in %v", res.Combos, took)
	}

	// The deadline passes at the fifth look: 4·ctxEvery of the 65 536
	// combinations of the ×8 grid are searched.
	cut, err := Search(&expiring{n: 4}, p, Options{GridFactor: 8})
	if err != nil {
		t.Fatalf("deadline mid-search: %v", err)
	}
	if cut.Combos != 4*ctxEvery || !p.Feasible(cut.X) || cut.Objective <= 0 {
		t.Fatalf("deadline mid-search: %d combinations, objective %g, feasible %v", cut.Combos, cut.Objective, p.Feasible(cut.X))
	}
}
