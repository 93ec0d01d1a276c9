package tables

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// quickSolverStudy runs the study at both paper sizes under oocbench's
// -quick budget (capped: 60 000 evaluations per solve).
func quickSolverStudy(t *testing.T) []SolverRow {
	t.Helper()
	rows, err := SolverStudy(PaperSizes, capped())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestSolverStudyInvariants checks what the study is for: the portfolio
// races the full lane count on fewer evaluations than the cold solve, and
// the warm sweep beats the cold sweep on evaluations while staying
// feasible.
func TestSolverStudyInvariants(t *testing.T) {
	rows := quickSolverStudy(t)
	if len(rows) != len(PaperSizes) {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Scenario != "four-index-140x120" {
		t.Fatalf("scenario = %q", rows[0].Scenario)
	}
	for _, r := range rows {
		if r.PortfolioLanes != solverPortfolioLanes {
			t.Fatalf("%s: lanes = %d, want %d", r.Scenario, r.PortfolioLanes, solverPortfolioLanes)
		}
		if r.PortfolioEvals >= r.ColdEvals {
			t.Fatalf("%s: portfolio spent %d evals, cold %d — race saved nothing",
				r.Scenario, r.PortfolioEvals, r.ColdEvals)
		}
		if r.WarmSweepEvals >= r.ColdSweepEvals {
			t.Fatalf("%s: warm sweep evals %d not below cold %d", r.Scenario, r.WarmSweepEvals, r.ColdSweepEvals)
		}
		if r.WinnerStrategy == "" || r.WinnerLane < 0 || r.WinnerLane >= solverPortfolioLanes {
			t.Fatalf("%s: winner not recorded: lane %d strategy %q", r.Scenario, r.WinnerLane, r.WinnerStrategy)
		}
		if r.ColdObjective <= 0 || r.PortfolioObjective <= 0 {
			t.Fatalf("%s: objectives missing: cold %g portfolio %g", r.Scenario, r.ColdObjective, r.PortfolioObjective)
		}
	}
}

// TestSolverStudyGolden pins every deterministic column of the quick
// study — eval counts, objectives, lanes, the race's winner lane, seed
// and strategy, candidates pruned — to testdata/solver_quick.json,
// exactly: the JSON form leaves the walls out and prints each float in
// its shortest round-trip form. A change that moves a column must say
// why and re-record with -update.
func TestSolverStudyGolden(t *testing.T) {
	got, err := json.MarshalIndent(quickSolverStudy(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "solver_quick.json"), append(got, '\n'))
}
