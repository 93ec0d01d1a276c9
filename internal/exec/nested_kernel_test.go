package exec

import (
	"slices"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/tensor"
)

// TestKernelBasesFollowLowering runs a compute block inside a loop over i
// (tile 3) nested in a loop over i (tile 4): A[i] is read into a tile
// buffer and copied into B's. The block's buffers are bound at the inner
// loop's bases, so the kernel must take its tile bases from the same loop
// (the plan's lowering), not from the outermost loop over i, or its
// origins fall outside the buffers. Verify rejects such plans (R4); the
// engine must still return rather than panic.
func TestKernelBasesFollowLowering(t *testing.T) {
	cfg := machine.Small(1 << 20)
	bA := &codegen.Buffer{Name: "bA", Array: "A", Dims: []placement.BufDim{{Index: "i", Class: placement.ExtTile}}}
	bB := &codegen.Buffer{Name: "bB", Array: "B", Dims: []placement.BufDim{{Index: "i", Class: placement.ExtTile}}}
	plan := &codegen.Plan{
		Prog:  loops.NewProgram("nested", map[string]int64{"i": 10}),
		Cfg:   cfg,
		Tiles: map[string]int64{"i": 3},
		Body: []codegen.Node{
			&codegen.Loop{Index: "i", Range: 10, Tile: 4, Body: []codegen.Node{
				&codegen.Loop{Index: "i", Range: 10, Tile: 3, Body: []codegen.Node{
					&codegen.IO{Read: true, Array: "A", Buffer: bA},
					&codegen.ZeroBuf{Buffer: bB},
					&codegen.Compute{Intra: []string{"i"}, Out: bB, Factors: []*codegen.Buffer{bA}},
					&codegen.IO{Array: "B", Buffer: bB},
				}},
			}},
		},
		Buffers: []*codegen.Buffer{bA, bB},
		DiskArrays: []codegen.DiskArray{
			{Name: "A", Indices: []string{"i"}, Dims: []int64{10}, Kind: loops.Input},
			{Name: "B", Indices: []string{"i"}, Dims: []int64{10}, Kind: loops.Output},
		},
	}
	a := tensor.New(10)
	for i := range a.Data() {
		a.Data()[i] = float64(i + 1)
	}
	for _, pipe := range []bool{false, true} {
		res, err := Run(plan, disk.NewSim(cfg.Disk, true), map[string]*tensor.Tensor{"A": a}, Options{Pipeline: pipe})
		if err != nil {
			t.Fatalf("pipeline %v: %v", pipe, err)
		}
		if got := res.Outputs["B"].Data(); !slices.Equal(got, a.Data()) {
			t.Errorf("pipeline %v: B = %v, want A = %v", pipe, got, a.Data())
		}
	}
}
