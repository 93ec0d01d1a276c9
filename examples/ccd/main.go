// Coupled-cluster-style multi-term equation: a residual tensor assembled
// from several contraction terms (a sum of products) written in the TCE
// input language, synthesized to out-of-core code, executed on the
// simulated disk, and verified. Multi-term targets exercise the
// multi-producer placement path: every term's nest read-modify-writes the
// shared disk-resident output.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/tce"
	"repro/internal/tensor"
)

const src = `
# CCD-like doubles residual: three terms into one target
range O = 14;
range V = 12;
index i, j, k, l : O;
index a, b, c, d : V;
tensor F[a,c];
tensor T2[i,j,c,b];
tensor W1[k,l,i,j];
tensor T2b[k,l,a,b];
tensor V2[a,b,c,d];
tensor T2c[i,j,c,d];
R[i,j,a,b]  = F[a,c] * T2[i,j,c,b];
R[i,j,a,b] += W1[k,l,i,j] * T2b[k,l,a,b];
R[i,j,a,b] += V2[a,b,c,d] * T2c[i,j,c,d];
`

func main() {
	log.SetFlags(0)
	spec, err := tce.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := spec.Lower("ccd-residual")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("abstract program (three terms accumulate into R):")
	fmt.Print(prog.String())

	s, err := core.SynthesizeOpts(context.Background(), prog,
		core.WithMachine(machine.Small(24<<10)),
		core.WithSeed(3),
		core.WithMaxEvals(60000),
		core.WithAutoFuse(),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nconcrete out-of-core code:")
	fmt.Print(s.Plan.String())
	fmt.Println()
	fmt.Print(s.Summary())

	inputs := spec.RandomInputs(7)
	outputs, stats, err := s.RunSim(inputs)
	if err != nil {
		log.Fatal(err)
	}
	want, err := spec.EvalReference(inputs)
	if err != nil {
		log.Fatal(err)
	}
	diff := tensor.MaxAbsDiff(outputs["R"], want["R"])
	fmt.Printf("\nexecuted: %s\nmax error vs term-by-term reference: %.2e\n", stats, diff)
	if diff > 1e-8 {
		log.Fatal("verification FAILED")
	}
	fmt.Println("verification OK")
}
