package tables

import (
	"testing"
)

func solverStudyOnce(t *testing.T) []SolverRow {
	t.Helper()
	rows, err := SolverStudy([]Size{{140, 120}}, Options{Seed: 1, DCSEvals: 40000})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestSolverStudyInvariants checks the properties the committed baseline
// promises: the portfolio races the full lane count on fewer evaluations
// than the cold solve, and the warm sweep beats the cold sweep on
// evaluations while staying feasible.
func TestSolverStudyInvariants(t *testing.T) {
	rows := solverStudyOnce(t)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Scenario != "four-index-140x120" {
		t.Fatalf("scenario = %q", r.Scenario)
	}
	if r.PortfolioLanes != SolverPortfolioLanes {
		t.Fatalf("lanes = %d, want %d", r.PortfolioLanes, SolverPortfolioLanes)
	}
	if r.PortfolioEvals >= r.ColdEvals {
		t.Fatalf("portfolio spent %d evals, cold %d — race saved nothing",
			r.PortfolioEvals, r.ColdEvals)
	}
	if r.WarmSweepEvals >= r.ColdSweepEvals {
		t.Fatalf("warm sweep evals %d not below cold %d", r.WarmSweepEvals, r.ColdSweepEvals)
	}
	if r.WinnerStrategy == "" || r.WinnerLane < 0 || r.WinnerLane >= SolverPortfolioLanes {
		t.Fatalf("winner not recorded: lane %d strategy %q", r.WinnerLane, r.WinnerStrategy)
	}
	if r.ColdObjective <= 0 || r.PortfolioObjective <= 0 {
		t.Fatalf("objectives missing: cold %g portfolio %g", r.ColdObjective, r.PortfolioObjective)
	}
}

// TestSolverStudyDeterministicEvals: the gate relies on eval counts being
// reproducible run to run.
func TestSolverStudyDeterministicEvals(t *testing.T) {
	a, b := solverStudyOnce(t), solverStudyOnce(t)
	if a[0].ColdEvals != b[0].ColdEvals ||
		a[0].PortfolioEvals != b[0].PortfolioEvals ||
		a[0].WarmSweepEvals != b[0].WarmSweepEvals ||
		a[0].WinnerLane != b[0].WinnerLane ||
		a[0].WinnerSeed != b[0].WinnerSeed {
		t.Fatalf("study not deterministic:\n%+v\n%+v", a[0], b[0])
	}
}

// TestSolverRegressions exercises the gate's pass and fail paths.
func TestSolverRegressions(t *testing.T) {
	base := SolverRow{
		Scenario: "s", ColdWallS: 10, ColdEvals: 1000,
		PortfolioWallS: 5, PortfolioEvals: 900,
		ColdSweepWallS: 30, ColdSweepEvals: 3000,
		WarmSweepWallS: 12, WarmSweepEvals: 1200,
	}
	if bad := SolverRegressions([]SolverRow{base}, []SolverRow{base}, 0.25); len(bad) != 0 {
		t.Fatalf("identical run flagged: %v", bad)
	}

	// Wall-clock scaled uniformly (slower machine): ratios unchanged, no
	// regression.
	slow := base
	slow.ColdWallS, slow.PortfolioWallS = 40, 20
	slow.ColdSweepWallS, slow.WarmSweepWallS = 120, 48
	if bad := SolverRegressions([]SolverRow{slow}, []SolverRow{base}, 0.25); len(bad) != 0 {
		t.Fatalf("uniform slowdown flagged: %v", bad)
	}

	cases := []struct {
		name   string
		mutate func(*SolverRow)
	}{
		{"eval drift", func(r *SolverRow) { r.ColdEvals = 2000 }},
		{"portfolio evals not below cold", func(r *SolverRow) { r.PortfolioEvals = 1000 }},
		{"warm sweep no saving", func(r *SolverRow) { r.WarmSweepEvals = 3000 }},
		{"portfolio ratio regressed", func(r *SolverRow) { r.PortfolioWallS = 9 }},
		{"warm ratio regressed", func(r *SolverRow) { r.WarmSweepWallS = 29 }},
		{"missing baseline", func(r *SolverRow) { r.Scenario = "other" }},
	}
	for _, tc := range cases {
		cur := base
		tc.mutate(&cur)
		if bad := SolverRegressions([]SolverRow{cur}, []SolverRow{base}, 0.25); len(bad) == 0 {
			t.Errorf("%s: not flagged", tc.name)
		}
	}
}
