package core

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
)

// TestSynthesizeOptsPipelineBitIdentical checks WithPipeline switches the
// run helpers to the pipelined schedule without changing a single bit of
// the result.
func TestSynthesizeOptsPipelineBitIdentical(t *testing.T) {
	nmn, nij := int64(6), int64(8)
	prog := loops.TwoIndexFused(nmn, nij)
	cfg := machine.Small(16 << 10)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(nmn, nij), 5)

	serial, err := SynthesizeOpts(context.Background(), prog,
		WithMachine(cfg), WithSeed(3), WithMaxEvals(3000))
	if err != nil {
		t.Fatal(err)
	}
	piped, err := SynthesizeOpts(context.Background(), prog,
		WithMachine(cfg), WithSeed(3), WithMaxEvals(3000), WithPipeline())
	if err != nil {
		t.Fatal(err)
	}
	if !piped.Pipeline {
		t.Fatal("WithPipeline must mark the synthesis")
	}
	wantOut, _, err := serial.RunSim(inputs)
	if err != nil {
		t.Fatal(err)
	}
	gotOut, _, err := piped.RunSim(inputs)
	if err != nil {
		t.Fatal(err)
	}
	g, w := gotOut["B"].Data(), wantOut["B"].Data()
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("element %d: pipelined %v != serial %v", i, g[i], w[i])
		}
	}
	// The pipelined dry run reports the overlap timeline.
	res, err := piped.MeasureSimFull()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipeline == nil {
		t.Fatal("pipelined MeasureSimFull must report PipelineStats")
	}
	if res.Pipeline.OverlappedSeconds > res.Pipeline.SerialSeconds+1e-12 {
		t.Fatal("overlapped critical path cannot exceed the serial one")
	}
	sres, err := serial.MeasureSimFull()
	if err != nil {
		t.Fatal(err)
	}
	if sres.Pipeline != nil {
		t.Fatal("serial MeasureSimFull must not report PipelineStats")
	}
	if sres.Stats.ReadOps != 0 || sres.Stats.BytesRead != 0 {
		// Byte totals must agree between the engines.
		pr, sr := res.Stats, sres.Stats
		if pr.BytesRead != sr.BytesRead || pr.BytesWritten != sr.BytesWritten ||
			pr.ReadOps != sr.ReadOps || pr.WriteOps != sr.WriteOps {
			t.Fatalf("pipelined I/O counts %v != serial %v", pr, sr)
		}
	}
}

// TestSynthesizeContextCancelled checks caller cancellation aborts the
// synthesis with an error (unlike a deadline, which degrades gracefully).
func TestSynthesizeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SynthesizeOpts(ctx, loops.TwoIndexFused(40, 60), WithMachine(machine.Small(256<<10)))
	if err == nil {
		t.Fatal("cancelled synthesis must fail")
	}
}

// TestMaxTimeStillSynthesizes checks a wall-clock budget degrades
// gracefully: a deadline on the caller's context stops a solve whose
// eval budget is unbounded, and still yields a feasible synthesis.
func TestMaxTimeStillSynthesizes(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	s, err := SynthesizeOpts(ctx, loops.TwoIndexFused(40, 60),
		WithMachine(machine.Small(256<<10)), WithSeed(1), WithMaxEvals(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("context deadline ignored: synthesis took %v", elapsed)
	}
	if s.Plan == nil {
		t.Fatal("expected a plan under a time budget")
	}
}
