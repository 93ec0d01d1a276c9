// Custom contraction: take an arbitrary einsum-style multi-term
// contraction (here a CCSD-like doubles term), run operation minimization
// to factor it into binary contractions with intermediates, lower it to an
// abstract loop program, synthesize out-of-core code for a machine with a
// small memory, and verify the execution numerically.
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

	// R[i,j,a,b] = Σ_{k,l,c,d} W[k,l,c,d] T[i,k,a,c] T2[l,j,d,b]
	// — the shape of a CCSD ladder-type term (small ranges so the example
	// verifies numerically).
	ranges := map[string]int64{
		"i": 6, "j": 6, "a": 5, "b": 5,
		"k": 6, "l": 6, "c": 5, "d": 5,
	}
	spec := "R[i,j,a,b] = W[k,l,c,d] * T[i,k,a,c] * T2[l,j,d,b]"
	c, err := expr.Parse(spec, ranges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("contraction:", c)
	fmt.Printf("direct evaluation: %.3g flops\n", c.DirectFlops())

	plan, err := expr.Minimize(c, "I")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("operation-minimized: %.3g flops\n", plan.Flops)
	fmt.Println("binary contraction sequence:")
	fmt.Print(plan.String())

	prog, err := loops.FromPlan(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nabstract program:")
	fmt.Print(prog.String())

	// Give the machine so little memory that intermediates must spill.
	cfg := machine.Small(24 << 10)
	s, err := core.SynthesizeOpts(context.Background(), prog,
		core.WithMachine(cfg),
		core.WithSeed(7),
		core.WithMaxEvals(60000),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nconcrete out-of-core code:")
	fmt.Print(s.Plan.String())

	inputs := expr.RandomInputs(c, 123)
	outputs, stats, err := s.RunSim(inputs)
	if err != nil {
		log.Fatal(err)
	}
	want, err := expr.EvalDirect(c, inputs)
	if err != nil {
		log.Fatal(err)
	}
	diff := tensor.MaxAbsDiff(outputs["R"], want)
	fmt.Printf("\nexecuted: %s\nmax error vs direct evaluation: %.2e\n", stats, diff)
	if diff > 1e-8 {
		log.Fatal("verification FAILED")
	}
	fmt.Println("verification OK")
}
