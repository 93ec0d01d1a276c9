package dcs

import (
	"context"
	"math"
	"testing"

	"repro/internal/obs"
)

// TestObserverConvergence drives each strategy with an observer and
// checks the acceptance properties: the final event's best objective
// equals Result.Objective, and the improvement events form a
// monotonically non-increasing staircase ending at the result.
func TestObserverConvergence(t *testing.T) {
	for _, strat := range []Strategy{DLM, CSA, RandomSearch} {
		t.Run(strat.String(), func(t *testing.T) {
			var events []Event
			reg := obs.NewRegistry()
			res, err := Run(context.Background(), quadProblem{},
				WithStrategy(strat),
				WithSeed(7),
				WithBudget(20000),
				WithObserver(func(e Event) { events = append(events, e) }),
				WithMetrics(reg),
			)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Feasible {
				t.Fatal("no feasible point found")
			}

			if len(events) == 0 {
				t.Fatal("no events recorded")
			}
			fin := events[len(events)-1]
			if fin.Kind != "final" {
				t.Fatalf("last event kind = %q, want final", fin.Kind)
			}
			if fin.Best != res.Objective {
				t.Fatalf("final event best = %g, Result.Objective = %g", fin.Best, res.Objective)
			}
			if !fin.Feasible || fin.MaxViolation != 0 {
				t.Fatalf("final event feasible/viol = %v/%g", fin.Feasible, fin.MaxViolation)
			}
			if fin.Evals != res.Evals {
				t.Fatalf("final event evals = %d, Result.Evals = %d", fin.Evals, res.Evals)
			}

			var imps []Event
			for _, e := range events {
				if e.Kind == "improvement" {
					imps = append(imps, e)
				}
			}
			if len(imps) == 0 {
				t.Fatal("no improvement events")
			}
			prev := math.Inf(1)
			lastEvals := 0
			for i, e := range imps {
				if e.Best > prev {
					t.Fatalf("improvement %d best %g > previous %g (not non-increasing)", i, e.Best, prev)
				}
				if e.Evals < lastEvals {
					t.Fatalf("improvement %d evals %d went backwards", i, e.Evals)
				}
				if !e.Feasible {
					t.Fatalf("improvement %d not feasible", i)
				}
				prev, lastEvals = e.Best, e.Evals
			}
			if prev != res.Objective {
				t.Fatalf("last improvement best = %g, Result.Objective = %g", prev, res.Objective)
			}

			// Restart events precede their run's improvements and count up.
			restarts := 0
			for _, e := range events {
				if e.Kind == "restart" {
					restarts++
					if e.Restart != restarts {
						t.Fatalf("restart event numbered %d, want %d", e.Restart, restarts)
					}
				}
			}
			if restarts != res.Restarts {
				t.Fatalf("restart events = %d, Result.Restarts = %d", restarts, res.Restarts)
			}

			// Metrics mirror the result's counters.
			snap := reg.Snapshot()
			if got := snap.Counters["dcs.evals"]; got != int64(res.Evals) {
				t.Fatalf("dcs.evals = %d, Result.Evals = %d", got, res.Evals)
			}
			if got := snap.Counters["dcs.restarts"]; got != int64(res.Restarts) {
				t.Fatalf("dcs.restarts = %d, Result.Restarts = %d", got, res.Restarts)
			}
			if got := snap.Counters["dcs.improvements"]; got != int64(len(imps)) {
				t.Fatalf("dcs.improvements = %d, improvement events = %d", got, len(imps))
			}
		})
	}
}

// TestObserverInfeasibleFinal checks the final event of an infeasible
// search reports the least-bad point's violation.
func TestObserverInfeasibleFinal(t *testing.T) {
	var events []Event
	res, err := Run(context.Background(), infeasibleProblem{},
		WithSeed(1), WithBudget(2000),
		WithObserver(func(e Event) { events = append(events, e) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("infeasible problem reported feasible")
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	fin := events[len(events)-1]
	if fin.Kind != "final" || fin.Feasible {
		t.Fatalf("final = %+v, want infeasible final", fin)
	}
	if fin.MaxViolation <= 0 {
		t.Fatalf("final MaxViolation = %g, want > 0", fin.MaxViolation)
	}
	if fin.Best != res.Objective {
		t.Fatalf("final best = %g, Result.Objective = %g", fin.Best, res.Objective)
	}
	// No improvement events can exist without a feasible point.
	for _, e := range events {
		if e.Kind == "improvement" {
			t.Fatalf("improvement event on an infeasible problem: %+v", e)
		}
	}
}
