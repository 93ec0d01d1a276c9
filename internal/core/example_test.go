package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
)

// ExampleSynthesizeOpts synthesizes out-of-core code for the paper's
// running example and prints the chosen strategy for the intermediate T.
func ExampleSynthesizeOpts() {
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 1 * machine.GB
	s, err := core.SynthesizeOpts(context.Background(), loops.TwoIndexFused(35000, 40000),
		core.WithMachine(cfg),
		core.WithStrategy(core.DCS),
		core.WithSeed(1),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("T:", s.Assign.Selected["T"].Label)
	fmt.Println("feasible:", s.Plan.MemoryBytes() <= cfg.MemoryLimit)
	// Output:
	// T: in memory
	// feasible: true
}

// ExampleSynthesizeOpts_verify runs synthesized code on the simulated
// disk and verifies it against a direct evaluation.
func ExampleSynthesizeOpts_verify() {
	s, err := core.SynthesizeOpts(context.Background(), loops.TwoIndexFused(12, 16),
		core.WithMachine(machine.Small(4<<10)),
		core.WithSeed(1),
		core.WithMaxEvals(20000),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	c := expr.TwoIndexTransform(12, 16)
	inputs := expr.RandomInputs(c, 42)
	outputs, _, err := s.RunSim(inputs)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	want, _ := expr.EvalDirect(c, inputs)
	diff := 0.0
	for i, v := range outputs["B"].Data() {
		if d := v - want.Data()[i]; d > diff {
			diff = d
		} else if -d > diff {
			diff = -d
		}
	}
	fmt.Println("verified:", diff < 1e-9)
	// Output:
	// verified: true
}
