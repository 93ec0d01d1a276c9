package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dcs"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestStrategySpecsTotal pins the spec table as the single source of
// truth between core.Strategy and dcs.Strategy: every core strategy must
// have a spec, every dcs strategy must be reachable from some core
// strategy, and no spec may reference a dcs strategy the solver rejects.
// If either enum gains a value without the table being updated, this
// fails.
func TestStrategySpecsTotal(t *testing.T) {
	coreStrategies := []Strategy{DCS, UniformSampling, DCSConstrainedAnnealing, RandomSearch}
	if len(strategySpecs) != len(coreStrategies) {
		t.Fatalf("strategySpecs has %d entries for %d strategies", len(strategySpecs), len(coreStrategies))
	}
	covered := map[dcs.Strategy]bool{}
	for _, s := range coreStrategies {
		sp, ok := strategySpecs[s]
		if !ok {
			t.Fatalf("strategy %d (%v) has no spec", int(s), s)
		}
		if sp.name == "" || strings.Contains(sp.name, "Strategy(") {
			t.Fatalf("strategy %v has no proper name: %q", int(s), sp.name)
		}
		if sp.name != s.String() {
			t.Fatalf("String() = %q, spec name = %q", s.String(), sp.name)
		}
		if sp.solverBased {
			covered[sp.solver] = true
			// The solver must accept the configured strategy: a drifted
			// enum value would error out of a 1-eval run.
			if _, err := dcs.Run(context.Background(), tinyProblem{},
				dcs.WithStrategy(sp.solver), dcs.WithBudget(10)); err != nil {
				t.Fatalf("spec of %v configures a solver strategy the solver rejects: %v", s, err)
			}
		}
	}
	for _, ds := range []dcs.Strategy{dcs.DLM, dcs.CSA, dcs.RandomSearch} {
		if !covered[ds] {
			t.Fatalf("dcs strategy %v is not reachable from any core strategy", ds)
		}
	}
	// SolverStrategy mirrors the table.
	if ds, ok := DCS.SolverStrategy(); !ok || ds != dcs.DLM {
		t.Fatalf("DCS.SolverStrategy() = %v,%v", ds, ok)
	}
	if _, ok := UniformSampling.SolverStrategy(); ok {
		t.Fatal("UniformSampling must not be solver-based")
	}
	if Strategy(99).String() != "Strategy(99)" {
		t.Fatalf("unknown strategy String() = %q", Strategy(99).String())
	}
}

type tinyProblem struct{}

func (tinyProblem) Dim() int                  { return 1 }
func (tinyProblem) Bounds(int) (int64, int64) { return 0, 1 }
func (tinyProblem) Objective(x []int64) float64 {
	return float64(x[0])
}
func (tinyProblem) Violations([]int64) []float64 { return []float64{0} }

func synthOpts(limit int64, extra ...Option) []Option {
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = limit
	return append([]Option{
		WithMachine(cfg),
		WithSeed(1),
		WithMaxEvals(60000),
	}, extra...)
}

// TestPortfolioConvergenceLanes: the log of a portfolio synthesis sees
// each solver event's lane, so the four-index race at the solver study's
// budget streams events from several lanes.
func TestPortfolioConvergenceLanes(t *testing.T) {
	ring := obs.NewRing(1 << 16)
	if _, err := SynthesizeOpts(context.Background(), loops.FourIndexAbstract(140, 120),
		synthOpts(machine.OSCItanium2().MemoryLimit, WithPortfolio(4),
			WithLog(obs.NewLog(obs.LevelInfo, ring)))...); err != nil {
		t.Fatal(err)
	}
	lanes := map[any]bool{}
	for _, e := range ring.Events() {
		if e.System == "dcs" {
			lanes[e.Fields["lane"]] = true
		}
	}
	if len(lanes) < 2 {
		t.Fatalf("log saw solver events from lanes %v, want several", lanes)
	}
}

// TestPortfolioSynthesisDeterministic: a portfolio synthesis must be
// reproducible end to end — same seeds, same winner, bit-identical plan.
func TestPortfolioSynthesisDeterministic(t *testing.T) {
	run := func() *Synthesis {
		s, err := SynthesizeOpts(context.Background(), loops.TwoIndexFused(35000, 40000),
			synthOpts(machine.GB, WithPortfolio(4))...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if a.SolverLanes != 4 || b.SolverLanes != 4 {
		t.Fatalf("lanes = %d/%d, want 4", a.SolverLanes, b.SolverLanes)
	}
	if a.WinnerLane != b.WinnerLane || a.WinnerSeed != b.WinnerSeed || a.WinnerStrategy != b.WinnerStrategy {
		t.Fatalf("winner differs: %d/%d/%s vs %d/%d/%s",
			a.WinnerLane, a.WinnerSeed, a.WinnerStrategy, b.WinnerLane, b.WinnerSeed, b.WinnerStrategy)
	}
	if len(a.X) != len(b.X) {
		t.Fatal("decision vectors differ in length")
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("plans differ at %d: %v vs %v", i, a.X, b.X)
		}
	}
	if a.WinnerStrategy == "" {
		t.Fatal("winner strategy missing")
	}
}

// TestWarmStartSynthesis: warm-starting a tighter-memory re-solve from a
// looser one must stay feasible, and warm-starting with patience must
// spend fewer evals than the cold solve of the same point.
func TestWarmStartSynthesis(t *testing.T) {
	prog := func() *loops.Program { return loops.TwoIndexFused(35000, 40000) }
	prev, err := SynthesizeOpts(context.Background(), prog(), synthOpts(8*machine.GB)...)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := SynthesizeOpts(context.Background(), prog(), synthOpts(machine.GB)...)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SynthesizeOpts(context.Background(), prog(),
		synthOpts(machine.GB, WithWarmStart(prev), WithPatience(5000))...)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Problem.Feasible(warm.X) {
		t.Fatal("warm synthesis infeasible")
	}
	if warm.SolverEvals >= cold.SolverEvals {
		t.Fatalf("warm solve spent %d evals, cold %d — warm start saved nothing",
			warm.SolverEvals, cold.SolverEvals)
	}
	// Never-worse: the warm result cannot be worse than the remapped
	// previous solution evaluated under the new problem, because the
	// solver evaluates the start first.
	x0, matched := warm.Problem.EncodeAssignment(prev.Assign)
	if matched == 0 {
		t.Fatal("warm start remapped nothing")
	}
	if warm.Problem.Feasible(x0) && warm.Assign.Objective > warm.Problem.Objective(x0)*(1+1e-9) {
		t.Fatalf("warm result %g worse than its own start %g",
			warm.Assign.Objective, warm.Problem.Objective(x0))
	}
}

// TestWarmStartPrunesCandidates: warm-starting the same problem again
// (previous solution trivially feasible) must engage the incumbent bound
// and report pruned candidates without changing feasibility. The
// four-index workload has intermediate placements whose lower bound
// alone exceeds a good solution's total cost.
func TestWarmStartPrunesCandidates(t *testing.T) {
	prog := func() *loops.Program { return loops.FourIndexAbstract(140, 120) }
	prev, err := SynthesizeOpts(context.Background(), prog(), synthOpts(8*machine.GB)...)
	if err != nil {
		t.Fatal(err)
	}
	again, err := SynthesizeOpts(context.Background(), prog(),
		synthOpts(8*machine.GB, WithWarmStart(prev), WithPatience(5000))...)
	if err != nil {
		t.Fatal(err)
	}
	if again.CandidatesPruned <= 0 {
		t.Fatalf("incumbent bound pruned %d candidates, expected > 0", again.CandidatesPruned)
	}
	if !again.Problem.Feasible(again.X) {
		t.Fatal("pruned re-solve infeasible")
	}
	if again.Assign.Objective > prev.Assign.Objective*(1+1e-9) {
		t.Fatalf("re-solve worse than incumbent: %g vs %g",
			again.Assign.Objective, prev.Assign.Objective)
	}
}
