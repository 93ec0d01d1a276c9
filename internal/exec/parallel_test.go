package exec

import (
	"fmt"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/tensor"
)

// TestParallelComputeMatchesSerial checks that worker-split intra-tile
// compute is bit-identical to serial execution for both workloads,
// including partial tiles and a scalar-output fused intermediate (which
// cannot be split and must fall back to serial).
func TestParallelComputeMatchesSerial(t *testing.T) {
	cases := []struct {
		name   string
		prog   *loops.Program
		inputs map[string]*tensor.Tensor
		tiles  map[string]int64
	}{
		{
			name:   "two-index",
			prog:   loops.TwoIndexFused(9, 11),
			inputs: expr.RandomInputs(expr.TwoIndexTransform(9, 11), 1),
			tiles:  map[string]int64{"i": 4, "j": 5, "m": 3, "n": 4},
		},
		{
			name:   "four-index",
			prog:   loops.FourIndexAbstract(6, 5),
			inputs: expr.RandomInputs(expr.FourIndexTransform(6, 5), 2),
			tiles:  map[string]int64{"p": 3, "q": 4, "r": 2, "s": 5, "a": 2, "b": 3, "c": 4, "d": 2},
		},
	}
	for _, tc := range cases {
		cfg := machine.Small(1 << 22)
		p := buildProblem(t, tc.prog, cfg)
		plan, err := codegen.Generate(p, p.Encode(tc.tiles, nil))
		if err != nil {
			t.Fatal(err)
		}
		var serial *tensor.Tensor
		for _, workers := range []int{1, 2, 4, 7} {
			be := disk.NewSim(cfg.Disk, true)
			res, err := Run(plan, be, tc.inputs, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			be.Close()
			out := res.Outputs["B"]
			if workers == 1 {
				serial = out
				continue
			}
			bitIdentical(t, out, serial, fmt.Sprintf("%s workers=%d vs serial", tc.name, workers))
		}
	}
}

func BenchmarkComputeWorkers(b *testing.B) {
	prog := loops.TwoIndexFused(96, 128)
	cfg := machine.Small(1 << 22)
	p := buildProblem(b, prog, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(96, 128), 3)
	plan, err := codegen.Generate(p, p.Encode(map[string]int64{"i": 32, "j": 32, "m": 32, "n": 32}, nil))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(benchName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				be := disk.NewSim(cfg.Disk, true)
				if _, err := Run(plan, be, inputs, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
				be.Close()
			}
		})
	}
}

func benchName(w int) string {
	if w == 1 {
		return "serial"
	}
	return "parallel4"
}
