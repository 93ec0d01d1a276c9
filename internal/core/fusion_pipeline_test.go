package core

import (
	"context"
	"testing"

	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/tensor"
)

// TestAutoFusePipeline runs the complete front-to-back pipeline on an
// arbitrary contraction spec: parse → operation minimization → lowering →
// greedy fusion → tiling → placement → DCS → codegen → out-of-core
// execution → numerical verification.
func TestAutoFusePipeline(t *testing.T) {
	ranges := map[string]int64{"i": 6, "j": 5, "k": 7, "l": 4, "m": 5}
	c := expr.MustParse("Y[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]", ranges)
	plan := expr.MustMinimize(c, "T")
	prog, err := loops.FromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	inputs := expr.RandomInputs(c, 77)
	want, err := expr.EvalDirect(c, inputs)
	if err != nil {
		t.Fatal(err)
	}

	for _, fuse := range []bool{false, true} {
		opts := []Option{WithMachine(machine.Small(2 << 10)), WithSeed(9), WithMaxEvals(40000)}
		if fuse {
			opts = append(opts, WithAutoFuse())
		}
		s, err := SynthesizeOpts(context.Background(), prog.Clone(), opts...)
		if err != nil {
			t.Fatalf("fuse=%v: %v", fuse, err)
		}
		got, _, err := s.RunSim(inputs)
		if err != nil {
			t.Fatalf("fuse=%v: %v", fuse, err)
		}
		if d := tensor.MaxAbsDiff(got["Y"], want); d > 1e-9 {
			t.Fatalf("fuse=%v: result differs by %g", fuse, d)
		}
	}
}

// TestAutoFuseReducesCost checks that fusion lowers (or at least never
// raises) the synthesized I/O cost on a memory-starved machine, the
// motivation of Fig. 1.
func TestAutoFuseReducesCost(t *testing.T) {
	// Large unfused two-index transform: T(n,i) is a full N×N intermediate
	// that must round-trip disk without fusion.
	prog := loops.TwoIndexUnfused(3000, 3500)
	cfg := machine.Small(1 << 20)
	cfg.Disk = machine.OSCItanium2().Disk
	cfg.Disk.MinReadBlock = 0
	cfg.Disk.MinWriteBlock = 0

	opts := []Option{WithMachine(cfg), WithSeed(3), WithMaxEvals(80000)}
	base, err := SynthesizeOpts(context.Background(), prog.Clone(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := SynthesizeOpts(context.Background(), prog.Clone(), append(opts, WithAutoFuse())...)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Predicted() > base.Predicted()*1.01 {
		t.Fatalf("fusion raised predicted cost: %.2f → %.2f", base.Predicted(), fused.Predicted())
	}
	// The fused program keeps T entirely in (tile) memory.
	if c := fused.Assign.Selected["T"]; c != nil && !c.InMemory {
		t.Fatalf("fused T should be in memory, got %q", c.Label)
	}
}
