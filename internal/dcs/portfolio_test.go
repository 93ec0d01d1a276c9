package dcs

import (
	"context"
	"sync"
	"testing"

	"repro/internal/leaktest"
)

// runPortfolio races k lanes and checks that every lane goroutine is
// gone once Run returns.
func runPortfolio(t *testing.T, k int, opts ...RunOption) Result {
	t.Helper()
	defer leaktest.Check(t)()
	res, err := Run(context.Background(), quadProblem{},
		append([]RunOption{WithSeed(21), WithBudget(40000), WithPortfolio(k)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPortfolioDeterministic runs the same race twice (under -race in CI)
// and requires the same winner and a bit-identical point: the lockstep
// rounds make the outcome a function of seeds, never of goroutine
// scheduling.
func TestPortfolioDeterministic(t *testing.T) {
	a := runPortfolio(t, 4)
	b := runPortfolio(t, 4)
	if !a.Feasible || !b.Feasible {
		t.Fatalf("portfolio infeasible on an easy problem: %+v / %+v", a, b)
	}
	if a.WinnerLane != b.WinnerLane || a.WinnerSeed != b.WinnerSeed ||
		a.WinnerStrategy != b.WinnerStrategy {
		t.Fatalf("winner differs across runs: %+v vs %+v", a, b)
	}
	if a.Objective != b.Objective || a.Evals != b.Evals || a.Restarts != b.Restarts {
		t.Fatalf("result differs across runs: %+v vs %+v", a, b)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("points differ: %v vs %v", a.X, b.X)
		}
	}
	if a.Lanes != 4 {
		t.Fatalf("Lanes = %d, want 4", a.Lanes)
	}
}

// TestPortfolioSolvesProblems checks the race reaches the known optima of
// the solver test problems and never spends more than the single-solve
// budget.
func TestPortfolioSolvesProblems(t *testing.T) {
	res := runPortfolio(t, 4)
	if res.Objective != 2 {
		t.Fatalf("objective = %g at %v, want 2", res.Objective, res.X)
	}
	if res.Evals > 40000 {
		t.Fatalf("portfolio spent %d evals, budget 40000", res.Evals)
	}

	g, err := Run(context.Background(), groupedProblem{},
		WithSeed(5), WithBudget(60000), WithPortfolio(4))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Feasible || g.Objective != 5 {
		t.Fatalf("grouped optimum missed: %+v", g)
	}
}

// TestPortfolioObserverLanes checks lane tagging and that the single
// final event reports the race outcome.
func TestPortfolioObserverLanes(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	res, err := Run(context.Background(), quadProblem{},
		WithSeed(3), WithBudget(40000), WithPortfolio(3),
		WithObserver(func(e Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	lanes := map[int]bool{}
	finals := 0
	for _, e := range events {
		if e.Lane < 0 || e.Lane >= 3 {
			t.Fatalf("event lane %d out of range", e.Lane)
		}
		lanes[e.Lane] = true
		if e.Kind == "final" {
			finals++
			if e.Lane != res.WinnerLane || e.Best != res.Objective {
				t.Fatalf("final event %+v does not match result %+v", e, res)
			}
		}
	}
	if finals != 1 {
		t.Fatalf("final events = %d, want exactly 1", finals)
	}
	if len(lanes) < 2 {
		t.Fatalf("events from %d lanes, want several", len(lanes))
	}
	if events[len(events)-1].Kind != "final" {
		t.Fatal("final event must be last")
	}
}

// TestPortfolioInfeasibleDeterministic: with no feasible point anywhere,
// the race must still terminate and report the same least-bad point
// every run.
func TestPortfolioInfeasibleDeterministic(t *testing.T) {
	run := func() Result {
		res, err := Run(context.Background(), infeasibleProblem{},
			WithSeed(6), WithBudget(4000), WithPortfolio(4))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Feasible {
		t.Fatal("infeasible problem reported feasible")
	}
	if a.X[0] != b.X[0] || a.WinnerLane != b.WinnerLane {
		t.Fatalf("infeasible fallback nondeterministic: %+v vs %+v", a, b)
	}
}

// TestPortfolioPreCancelled mirrors the single-solve contract: a context
// cancelled before the race starts yields the zero-evaluation error.
func TestPortfolioPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	noLeak := leaktest.Check(t)
	if _, err := Run(ctx, quadProblem{}, WithSeed(1), WithPortfolio(4)); err == nil {
		t.Fatal("pre-cancelled race should report it evaluated nothing")
	}
	noLeak()
}

// TestPatienceStopsEarly: with a feasible point found immediately (warm
// start at the optimum), a small patience must terminate the search far
// under budget, and the warm start must be kept.
func TestPatienceStopsEarly(t *testing.T) {
	res, err := Run(context.Background(), quadProblem{},
		WithSeed(2), WithBudget(200000), WithRestarts(1),
		WithStart([]int64{6, 2}), WithPatience(500))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Objective != 2 {
		t.Fatalf("warm start at the optimum lost: %+v", res)
	}
	if res.Evals > 5000 {
		t.Fatalf("patience ignored: %d evals", res.Evals)
	}
	// Without patience the same search burns its whole budget.
	full, err := Run(context.Background(), quadProblem{},
		WithSeed(2), WithBudget(20000), WithRestarts(1),
		WithStart([]int64{6, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if full.Evals <= res.Evals {
		t.Fatalf("patience did not save evals: %d vs %d", res.Evals, full.Evals)
	}
}

// TestWarmStartNeverWorse: for any start point, the result can never be
// worse than the start itself when the start is feasible (the solver
// evaluates it first).
func TestWarmStartNeverWorse(t *testing.T) {
	p := quadProblem{}
	starts := [][]int64{{0, 0}, {4, 4}, {6, 2}, {8, 0}}
	for _, st := range starts {
		f0 := p.Objective(st)
		res, err := Run(context.Background(), p,
			WithSeed(9), WithBudget(3000), WithStart(st))
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible && res.Objective > f0 {
			t.Fatalf("start %v: result %g worse than start %g", st, res.Objective, f0)
		}
	}
}

// TestPortfolioK1MatchesPlainSolve: WithPortfolio(1) must be the plain
// single search, bit for bit.
func TestPortfolioK1MatchesPlainSolve(t *testing.T) {
	a, err := Run(context.Background(), quadProblem{}, WithSeed(7), WithBudget(5000), WithPortfolio(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), quadProblem{}, WithSeed(7), WithBudget(5000))
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.Evals != b.Evals || a.X[0] != b.X[0] || a.X[1] != b.X[1] {
		t.Fatalf("K=1 differs from plain solve: %+v vs %+v", a, b)
	}
	if a.Lanes != 1 || a.WinnerSeed != 7 {
		t.Fatalf("plain solve result metadata wrong: %+v", a)
	}
}

// TestLaneStrategyMix: a K≥3 portfolio must include all three strategies.
func TestLaneStrategyMix(t *testing.T) {
	seen := map[Strategy]bool{}
	for i := 0; i < 3; i++ {
		seen[laneStrategy(DLM, i)] = true
	}
	if !seen[DLM] || !seen[CSA] || !seen[RandomSearch] {
		t.Fatalf("lane strategies missing variants: %v", seen)
	}
	if laneStrategy(CSA, 0) != CSA {
		t.Fatal("lane 0 must keep the base strategy")
	}
	if laneSeed(42, 0) != 42 {
		t.Fatal("lane 0 must keep the base seed")
	}
	if laneSeed(42, 1) == laneSeed(42, 2) {
		t.Fatal("lane seeds must differ")
	}
}
