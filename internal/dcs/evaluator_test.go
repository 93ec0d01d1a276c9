package dcs_test

// Tests of the solver against the real placement NLP, which supplies a
// per-solver incremental evaluator (dcs.EvaluatingProblem). This is an
// external test package because nlp imports dcs.

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/dcs"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tiling"
)

// fourIndex builds the paper's four-index NLP at the given sizes and
// memory limit.
func fourIndex(tb testing.TB, n, v, memLimit int64) *nlp.Problem {
	tb.Helper()
	tree, err := tiling.Tile(loops.FourIndexAbstract(n, v))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = memLimit
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return nlp.Build(m)
}

// plain hides the problem's evaluator (and anything else beyond
// GroupedProblem), so the solver evaluates through Objective and
// Violations.
type plain struct{ dcs.GroupedProblem }

// solveTrace is everything a solve makes observable.
type solveTrace struct {
	res    dcs.Result
	events []dcs.Event
}

func traceSolve(t *testing.T, p dcs.Problem, opts ...dcs.RunOption) solveTrace {
	t.Helper()
	var tr solveTrace
	opts = append(opts, dcs.WithObserver(func(e dcs.Event) { tr.events = append(tr.events, e) }))
	res, err := dcs.Run(context.Background(), p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	tr.res = res
	return tr
}

// byLane splits an event stream into per-lane streams.
func byLane(events []dcs.Event) map[int][]dcs.Event {
	out := map[int][]dcs.Event{}
	for _, e := range events {
		out[e.Lane] = append(out[e.Lane], e)
	}
	return out
}

// TestSolverTrajectoryUnchanged runs every strategy, the portfolio and a
// warm-started patient re-solve on the real NLP with and without its
// incremental evaluator: results and event streams must be identical,
// objectives to the bit.
func TestSolverTrajectoryUnchanged(t *testing.T) {
	p := fourIndex(t, 190, 180, 2*machine.GB)
	cold, err := dcs.Run(context.Background(), p, dcs.WithSeed(5), dcs.WithBudget(20000))
	if err != nil {
		t.Fatal(err)
	}
	// The warm re-solve is the sweep's: the previous solution remapped
	// onto a problem with a tighter memory limit.
	tight := fourIndex(t, 190, 180, machine.GB)
	warm, _ := tight.EncodeAssignment(p.Decode(cold.X))

	cases := []struct {
		name string
		p    *nlp.Problem
		opts []dcs.RunOption
	}{
		{"DLM", p, []dcs.RunOption{dcs.WithStrategy(dcs.DLM), dcs.WithBudget(40000)}},
		{"CSA", p, []dcs.RunOption{dcs.WithStrategy(dcs.CSA), dcs.WithBudget(40000)}},
		{"random", p, []dcs.RunOption{dcs.WithStrategy(dcs.RandomSearch), dcs.WithBudget(20000)}},
		{"portfolio4", p, []dcs.RunOption{dcs.WithPortfolio(4), dcs.WithBudget(40000)}},
		{"warm+patience", tight, []dcs.RunOption{dcs.WithStart(warm), dcs.WithPatience(3000), dcs.WithBudget(40000)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := append([]dcs.RunOption{dcs.WithSeed(3)}, c.opts...)
			got := traceSolve(t, c.p, opts...)
			want := traceSolve(t, plain{c.p}, opts...)
			g, w := got.res, want.res
			if !reflect.DeepEqual(g.X, w.X) || math.Float64bits(g.Objective) != math.Float64bits(w.Objective) ||
				g.Feasible != w.Feasible || g.Evals != w.Evals || g.Restarts != w.Restarts ||
				g.WinnerLane != w.WinnerLane || g.WinnerSeed != w.WinnerSeed || g.WinnerStrategy != w.WinnerStrategy {
				t.Fatalf("with evaluator %+v\nwithout       %+v", g, w)
			}
			// Portfolio lanes interleave their events in scheduling
			// order; each lane's own stream is deterministic.
			if g, w := byLane(got.events), byLane(want.events); !reflect.DeepEqual(g, w) {
				t.Fatalf("event streams differ:\n%v\n%v", g, w)
			}
		})
	}
}

// TestSolveAllocsIndependentOfBudget pins the solver's inner loop at zero
// allocations per evaluation: a ten times larger budget may only add the
// copies of newly recorded best or least-infeasible points.
func TestSolveAllocsIndependentOfBudget(t *testing.T) {
	p := fourIndex(t, 190, 180, 2*machine.GB)
	improvements := 0
	observer := dcs.WithObserver(func(e dcs.Event) {
		if e.Kind == "improvement" {
			improvements++
		}
	})
	solve := func(budget int) func() {
		return func() {
			improvements = 0
			if _, err := dcs.Run(context.Background(), p, dcs.WithSeed(1), dcs.WithBudget(budget), observer); err != nil {
				t.Fatal(err)
			}
		}
	}
	small := testing.AllocsPerRun(1, solve(20000))
	large := testing.AllocsPerRun(1, solve(200000))
	// Each improvement copies x once; allow as many least-infeasible
	// copies again.
	t.Logf("allocs per solve: %v at 20k evals, %v at 200k evals (%d improvements)", small, large, improvements)
	if extra := large - small; extra > float64(2*improvements) {
		t.Fatalf("200k evals: %v allocs, 20k evals: %v allocs; %v extra exceeds 2×%d improvements",
			large, small, extra, improvements)
	}
}

// TestPortfolioLanesShareProblem races four lanes on one *nlp.Problem
// (run it under -race): lanes share the problem's immutable tables and
// each owns its evaluator, so the race must stay deterministic.
func TestPortfolioLanesShareProblem(t *testing.T) {
	p := fourIndex(t, 140, 120, 2*machine.GB)
	run := func() dcs.Result {
		res, err := dcs.Run(context.Background(), p, dcs.WithSeed(11), dcs.WithBudget(40000), dcs.WithPortfolio(4))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !a.Feasible || !reflect.DeepEqual(a, b) {
		t.Fatalf("portfolio on a shared problem differs across runs:\n%+v\n%+v", a, b)
	}
}

// BenchmarkSolve times a cold DLM solve of the paper's 190×180 four-index
// problem at a 60 k-evaluation budget, reporting evaluations per second.
func BenchmarkSolve(b *testing.B) {
	p := fourIndex(b, 190, 180, 2*machine.GB)
	b.ReportAllocs()
	b.ResetTimer()
	evals := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := dcs.Run(context.Background(), p, dcs.WithSeed(1), dcs.WithBudget(60000))
		if err != nil {
			b.Fatal(err)
		}
		evals += res.Evals
	}
	b.ReportMetric(float64(evals)/time.Since(start).Seconds(), "evals/s")
}
