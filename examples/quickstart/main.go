// Quickstart: synthesize out-of-core code for the paper's running example
// (the two-index transform B = C1 · A · C2ᵀ), execute it on the simulated
// disk with real data, and verify the result against a direct in-memory
// evaluation.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)

	// A small instance so the verification run holds data in memory: the
	// machine model gets a 6 KB memory limit, making even this toy problem
	// genuinely out-of-core.
	nmn, nij := int64(24), int64(32)
	prog := loops.TwoIndexFused(nmn, nij)
	cfg := machine.Small(6 << 10)

	fmt.Println("Abstract code (Fig. 1(c)):")
	fmt.Print(prog.String())

	// The functional-options entry point; WithPipeline adds the modelled
	// double-buffered timeline to runs (execution is bit-identical).
	s, err := core.SynthesizeOpts(context.Background(), prog,
		core.WithMachine(cfg),
		core.WithSeed(1),
		core.WithMaxEvals(40000),
		core.WithPipeline(),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSynthesized concrete out-of-core code:")
	fmt.Print(s.Plan.String())
	fmt.Println()
	fmt.Print(s.Summary())

	// Execute with real data on the simulated disk.
	contraction := expr.TwoIndexTransform(nmn, nij)
	inputs := expr.RandomInputs(contraction, 42)
	outputs, stats, err := s.RunSim(inputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nExecuted out-of-core: %s\n", stats)

	// Verify against the in-memory reference.
	want, err := expr.EvalDirect(contraction, inputs)
	if err != nil {
		log.Fatal(err)
	}
	diff := tensor.MaxAbsDiff(outputs["B"], want)
	fmt.Printf("max |out-of-core − reference| = %.2e\n", diff)
	if diff > 1e-9 {
		log.Fatal("verification FAILED")
	}
	fmt.Println("verification OK")
}
