package dcs

import (
	"context"
	"testing"
	"time"
)

// TestSolveContextPreCancelled checks a context cancelled before the solve
// starts yields a zero-evaluation error rather than a bogus result.
func TestSolveContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, quadProblem{}, WithSeed(1), WithBudget(20000)); err == nil {
		t.Fatal("pre-cancelled solve should report it evaluated nothing")
	}
}

// TestSolveContextDeadlineGraceful checks that a context deadline is a
// budget: the solve stops early but still returns its best point.
func TestSolveContextDeadlineGraceful(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, quadProblem{}, WithSeed(13), WithBudget(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("context deadline ignored: solve took %v", elapsed)
	}
	if !res.Feasible {
		t.Fatal("easy problem should still be solved within the deadline")
	}
}
