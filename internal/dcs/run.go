package dcs

// This file is the entry point of the solver: Run(ctx, Problem,
// ...Option), one ctx-first call with functional options at call sites.
// options remains the internal carrier; every RunOption maps onto it.

import (
	"context"

	"repro/internal/obs"
)

// RunOption configures a Run call.
type RunOption func(*options)

// WithStrategy selects the search algorithm (default DLM).
func WithStrategy(s Strategy) RunOption {
	return func(o *options) { o.Strategy = s }
}

// WithSeed makes the search deterministic.
func WithSeed(seed int64) RunOption {
	return func(o *options) { o.Seed = seed }
}

// WithBudget bounds the number of objective/constraint evaluations
// (non-positive keeps the default of 200000). Under a portfolio the
// budget is split across lanes, so the total work never exceeds a
// single-lane solve.
func WithBudget(maxEvals int) RunOption {
	return func(o *options) {
		if maxEvals > 0 {
			o.MaxEvals = maxEvals
		}
	}
}

// WithStart warm-starts the search: x seeds the first restart (of lane 0
// under a portfolio). The solver clamps it to the problem bounds; a nil
// start is ignored.
func WithStart(x []int64) RunOption {
	return func(o *options) {
		if x != nil {
			o.Start = append([]int64(nil), x...)
		}
	}
}

// WithPatience stops the search once a feasible point exists and no
// improvement was recorded for n evaluations — the deterministic early
// stop that lets warm-started re-solves finish far under budget
// (non-positive disables).
func WithPatience(n int) RunOption {
	return func(o *options) {
		if n > 0 {
			o.Patience = n
		}
	}
}

// WithPortfolio races k independently seeded lanes (cycling the DLM, CSA,
// and random strategies) in deterministic lockstep rounds; the first lane
// to converge on a feasible point stops the race (k ≤ 1 keeps the plain
// single search).
func WithPortfolio(k int) RunOption {
	return func(o *options) { o.Portfolio = k }
}

// WithObserver streams per-restart, per-improvement, and final events to
// obs — the data behind a convergence curve. Under a portfolio the
// callback is serialized across lanes and Event.Lane identifies the
// source.
func WithObserver(obs Observer) RunOption {
	return func(o *options) { o.Observer = obs }
}

// WithMetrics publishes dcs.evals / dcs.restarts / dcs.improvements
// counters into the registry (nil disables).
func WithMetrics(reg *obs.Registry) RunOption {
	return func(o *options) { o.Metrics = reg }
}

// WithLog streams the solver's structured events (restarts,
// improvements, lane wins, the final point) into the event log (nil
// disables).
func WithLog(l *obs.Log) RunOption {
	return func(o *options) { o.Log = l }
}

// Run minimizes the problem under a context, configured by functional
// options. Cancellation and deadline expiry stop the search gracefully:
// the best point found so far is returned, never an error — a budget
// signal, exactly like WithBudget.
func Run(ctx context.Context, p Problem, opts ...RunOption) (Result, error) {
	var o options
	for _, apply := range opts {
		apply(&o)
	}
	return solve(ctx, p, o)
}
