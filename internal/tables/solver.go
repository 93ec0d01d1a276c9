package tables

// The solver study is the committed performance baseline behind
// BENCH_solver.json: for each Table-2 scenario it times a cold
// single-seed solve, a racing portfolio solve, and a cold vs.
// warm-started memory-limit sweep, so CI can fail when the solver's
// efficiency regresses. Eval counts are deterministic (same seeds, same
// lockstep race) and gate tightly; wall-clock is machine-dependent and
// gates only as within-run ratios.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/machine"
)

// SolverRow is one scenario of the solver study.
type SolverRow struct {
	Scenario string `json:"scenario"`
	N        int64  `json:"n"`
	V        int64  `json:"v"`

	// Cold single-seed DCS solve.
	ColdWallS     float64 `json:"cold_wall_s"`
	ColdEvals     int64   `json:"cold_evals"`
	ColdObjective float64 `json:"cold_objective_s"`

	// Racing portfolio solve (same total budget, split across lanes).
	PortfolioLanes     int     `json:"portfolio_lanes"`
	PortfolioWallS     float64 `json:"portfolio_wall_s"`
	PortfolioEvals     int64   `json:"portfolio_evals"`
	PortfolioObjective float64 `json:"portfolio_objective_s"`
	WinnerLane         int     `json:"winner_lane"`
	WinnerSeed         int64   `json:"winner_seed"`
	WinnerStrategy     string  `json:"winner_strategy"`

	// Cold vs. warm-started sweep over SweepLimitsGB memory limits.
	SweepLimitsGB    []int64 `json:"sweep_limits_gb"`
	ColdSweepWallS   float64 `json:"cold_sweep_wall_s"`
	ColdSweepEvals   int64   `json:"cold_sweep_evals"`
	WarmSweepWallS   float64 `json:"warm_sweep_wall_s"`
	WarmSweepEvals   int64   `json:"warm_sweep_evals"`
	CandidatesPruned int     `json:"candidates_pruned"`
}

// SolverPortfolioLanes is the lane count the study races (the baseline's
// K).
const SolverPortfolioLanes = 4

// solverSweepLimits are the memory limits of the sweep legs, in GB. The
// loosest limit is where candidate costs spread out enough that the
// warm-start incumbent bound starts pruning placements.
var solverSweepLimits = []int64{1, 2, 4, 8}

// SolverStudy runs the study over the given sizes (nil: PaperSizes).
func SolverStudy(sizes []Size, opt Options) ([]SolverRow, error) {
	opt = opt.withDefaults()
	if sizes == nil {
		sizes = PaperSizes
	}
	var rows []SolverRow
	for _, sz := range sizes {
		row := SolverRow{
			Scenario:      fmt.Sprintf("four-index-%dx%d", sz.N, sz.V),
			N:             sz.N,
			V:             sz.V,
			SweepLimitsGB: solverSweepLimits,
		}
		prog := func() *loops.Program { return loops.FourIndexAbstract(sz.N, sz.V) }
		base := append(opt.coreOptions(), core.WithMachine(opt.Machine))

		cold, err := core.SynthesizeOpts(context.Background(), prog(), base...)
		if err != nil {
			return nil, fmt.Errorf("tables: solver study cold %s: %w", row.Scenario, err)
		}
		row.ColdWallS = cold.GenTime.Seconds()
		row.ColdEvals = cold.SolverEvals
		row.ColdObjective = cold.Assign.Objective

		race, err := core.SynthesizeOpts(context.Background(), prog(),
			append(base, core.WithPortfolio(SolverPortfolioLanes))...)
		if err != nil {
			return nil, fmt.Errorf("tables: solver study portfolio %s: %w", row.Scenario, err)
		}
		row.PortfolioLanes = race.SolverLanes
		row.PortfolioWallS = race.GenTime.Seconds()
		row.PortfolioEvals = race.SolverEvals
		row.PortfolioObjective = race.Assign.Objective
		row.WinnerLane = race.WinnerLane
		row.WinnerSeed = race.WinnerSeed
		row.WinnerStrategy = race.WinnerStrategy

		// The sweep legs re-solve the scenario at each memory limit: the
		// warm leg starts every point after the first from the previous
		// point's plan and stops on stagnation.
		for _, warm := range []bool{false, true} {
			var prev *core.Synthesis
			for _, gb := range solverSweepLimits {
				cfg := opt.Machine
				cfg.MemoryLimit = gb * machine.GB
				pointOpts := append(opt.coreOptions(), core.WithMachine(cfg))
				if warm && prev != nil {
					pointOpts = append(pointOpts,
						core.WithWarmStart(prev), core.WithPatience(5000))
				}
				syn, err := core.SynthesizeOpts(context.Background(), prog(), pointOpts...)
				if err != nil {
					return nil, fmt.Errorf("tables: solver study sweep %s at %d GB: %w",
						row.Scenario, gb, err)
				}
				prev = syn
				if warm {
					row.WarmSweepWallS += syn.GenTime.Seconds()
					row.WarmSweepEvals += syn.SolverEvals
					row.CandidatesPruned += syn.CandidatesPruned
				} else {
					row.ColdSweepWallS += syn.GenTime.Seconds()
					row.ColdSweepEvals += syn.SolverEvals
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatSolver renders the study for humans.
func FormatSolver(rows []SolverRow) string {
	var b strings.Builder
	b.WriteString("Solver study: cold vs portfolio vs warm-started sweep\n")
	b.WriteString("scenario             cold(s)  evals    race(s)  evals    winner          sweep cold/warm evals  pruned\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %7.3f  %-7d %7.3f  %-7d L%d seed=%d %s  %d/%d  %d\n",
			r.Scenario, r.ColdWallS, r.ColdEvals, r.PortfolioWallS, r.PortfolioEvals,
			r.WinnerLane, r.WinnerSeed, r.WinnerStrategy,
			r.ColdSweepEvals, r.WarmSweepEvals, r.CandidatesPruned)
	}
	return b.String()
}

// SolverRegressions gates a fresh study against a committed baseline,
// returning one message per violation (empty: gate green). tol is the
// allowed relative drift, e.g. 0.25 for ±25%.
//
// Deterministic eval counts gate two ways: against the baseline's
// absolute values, and as within-run invariants (a portfolio race must
// evaluate less than the cold solve it replaces, and so must a warm
// sweep against a cold one). Wall-clock gates only as the within-run
// ratios portfolio/cold and warm/cold against the baseline's ratios,
// which survive a machine change. The portfolio's wall is not required
// to beat the cold solve's: a solve of a few tens of milliseconds is
// dominated by the race's fixed cost (lane goroutines, lockstep
// handoffs), so that comparison would be a coin toss.
func SolverRegressions(cur, base []SolverRow, tol float64) []string {
	var bad []string
	baseline := map[string]SolverRow{}
	for _, r := range base {
		baseline[r.Scenario] = r
	}
	drifted := func(now, was int64) bool {
		d := float64(now - was)
		if d < 0 {
			d = -d
		}
		return d > tol*float64(was)
	}
	for _, r := range cur {
		// Within-run invariants first: these hold on any machine.
		if r.PortfolioEvals >= r.ColdEvals {
			bad = append(bad, fmt.Sprintf("%s: portfolio evals %d not below cold solve %d",
				r.Scenario, r.PortfolioEvals, r.ColdEvals))
		}
		if r.WarmSweepEvals >= r.ColdSweepEvals {
			bad = append(bad, fmt.Sprintf("%s: warm sweep evals %d not below cold sweep %d",
				r.Scenario, r.WarmSweepEvals, r.ColdSweepEvals))
		}
		b, ok := baseline[r.Scenario]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no baseline row", r.Scenario))
			continue
		}
		if drifted(r.ColdEvals, b.ColdEvals) {
			bad = append(bad, fmt.Sprintf("%s: cold evals %d drifted beyond ±%.0f%% of baseline %d",
				r.Scenario, r.ColdEvals, tol*100, b.ColdEvals))
		}
		if drifted(r.PortfolioEvals, b.PortfolioEvals) {
			bad = append(bad, fmt.Sprintf("%s: portfolio evals %d drifted beyond ±%.0f%% of baseline %d",
				r.Scenario, r.PortfolioEvals, tol*100, b.PortfolioEvals))
		}
		if drifted(r.WarmSweepEvals, b.WarmSweepEvals) {
			bad = append(bad, fmt.Sprintf("%s: warm sweep evals %d drifted beyond ±%.0f%% of baseline %d",
				r.Scenario, r.WarmSweepEvals, tol*100, b.WarmSweepEvals))
		}
		if b.ColdWallS > 0 && r.ColdWallS > 0 {
			if ratio, was := r.PortfolioWallS/r.ColdWallS, b.PortfolioWallS/b.ColdWallS; ratio > was*(1+tol) {
				bad = append(bad, fmt.Sprintf("%s: portfolio/cold wall ratio %.2f regressed beyond baseline %.2f +%.0f%%",
					r.Scenario, ratio, was, tol*100))
			}
		}
		if b.ColdSweepWallS > 0 && r.ColdSweepWallS > 0 {
			if ratio, was := r.WarmSweepWallS/r.ColdSweepWallS, b.WarmSweepWallS/b.ColdSweepWallS; ratio > was*(1+tol) {
				bad = append(bad, fmt.Sprintf("%s: warm/cold sweep wall ratio %.2f regressed beyond baseline %.2f +%.0f%%",
					r.Scenario, ratio, was, tol*100))
			}
		}
	}
	return bad
}
