package tables

// The solver study measures what racing and warm starts save: for each
// Table-2 scenario it runs a cold single-seed solve, a racing portfolio
// solve, and a cold vs. warm-started memory-limit sweep. Eval counts,
// objectives and the race's winner are deterministic (same seeds, same
// lockstep race), and TestSolverStudyGolden pins them exactly; the walls
// are the host's, printed and never compared.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/machine"
)

// SolverRow is one scenario of the solver study. Its JSON form, the
// study's golden file, holds the deterministic columns only: the walls
// are left out.
type SolverRow struct {
	Scenario string `json:"scenario"`
	N        int64  `json:"n"`
	V        int64  `json:"v"`

	// Cold single-seed DCS solve.
	ColdWallS     float64 `json:"-"`
	ColdEvals     int64   `json:"cold_evals"`
	ColdObjective float64 `json:"cold_objective_s"`

	// Racing portfolio solve (same total budget, split across lanes).
	PortfolioLanes     int     `json:"portfolio_lanes"`
	PortfolioWallS     float64 `json:"-"`
	PortfolioEvals     int64   `json:"portfolio_evals"`
	PortfolioObjective float64 `json:"portfolio_objective_s"`
	WinnerLane         int     `json:"winner_lane"`
	WinnerSeed         int64   `json:"winner_seed"`
	WinnerStrategy     string  `json:"winner_strategy"`

	// Cold vs. warm-started sweep over SweepLimitsGB memory limits.
	SweepLimitsGB    []int64 `json:"sweep_limits_gb"`
	ColdSweepWallS   float64 `json:"-"`
	ColdSweepEvals   int64   `json:"cold_sweep_evals"`
	WarmSweepWallS   float64 `json:"-"`
	WarmSweepEvals   int64   `json:"warm_sweep_evals"`
	CandidatesPruned int     `json:"candidates_pruned"`
}

// solverPortfolioLanes is the lane count the study races.
const solverPortfolioLanes = 4

// solverSweepLimits are the memory limits of the sweep legs, in GB. The
// loosest limit is where candidate costs spread out enough that the
// warm-start incumbent bound starts pruning placements.
var solverSweepLimits = []int64{1, 2, 4, 8}

// SolverStudy runs the study over the given sizes (nil: PaperSizes).
func SolverStudy(sizes []Size, opt Options) ([]SolverRow, error) {
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
		base := append(opt.coreOptions(), core.WithMachine(machine.OSCItanium2()))

		cold, err := core.SynthesizeOpts(context.Background(), prog(), base...)
		if err != nil {
			return nil, fmt.Errorf("tables: solver study cold %s: %w", row.Scenario, err)
		}
		row.ColdWallS = cold.GenTime.Seconds()
		row.ColdEvals = cold.SolverEvals
		row.ColdObjective = cold.Assign.Objective

		race, err := core.SynthesizeOpts(context.Background(), prog(),
			append(base, core.WithPortfolio(solverPortfolioLanes))...)
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
				cfg := machine.OSCItanium2()
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
