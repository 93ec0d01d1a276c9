// Four-index transform at paper scale: synthesize out-of-core code for
// the AO-to-MO integral transformation at (N, V) = (140, 120) under a
// 2 GB memory limit — the workload of the paper's evaluation — with both
// the DCS approach and the uniform-sampling baseline, and compare the
// generated codes' predicted and simulated disk I/O times.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/sampling"
)

func main() {
	log.SetFlags(0)
	n, v := int64(140), int64(120)
	cfg := machine.OSCItanium2()

	fmt.Printf("AO-to-MO four-index transform, N=%d, V=%d, memory limit %d GB\n",
		n, v, cfg.MemoryLimit/machine.GB)
	fmt.Printf("A alone is %.1f GB; T1 is %.1f GB — both must live on disk.\n\n",
		float64(n*n*n*n*8)/float64(machine.GB),
		float64(v*n*n*n*8)/float64(machine.GB))

	for _, strat := range []core.Strategy{core.UniformSampling, core.DCS} {
		s, err := core.SynthesizeOpts(context.Background(), loops.FourIndexAbstract(n, v),
			core.WithMachine(cfg),
			core.WithStrategy(strat),
			core.WithSeed(1),
			// Cap the baseline's grid so the example finishes promptly;
			// cmd/oocbench runs the full grid.
			core.WithSampling(sampling.Options{MaxCombos: 300000}),
		)
		if err != nil {
			log.Fatal(err)
		}
		st, err := s.MeasureSim()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %v ==\n", strat)
		fmt.Printf("code generation: %v\n", s.GenTime)
		fmt.Printf("predicted I/O:   %.0f s\n", s.Predicted())
		fmt.Printf("measured I/O:    %.0f s  (%s)\n", st.Time(), st)
		fmt.Printf("buffer memory:   %.2f GB\n\n", float64(s.Plan.MemoryBytes())/float64(machine.GB))
		if strat == core.DCS {
			fmt.Println("DCS concrete code:")
			fmt.Print(s.Plan.String())
		}
	}
}
