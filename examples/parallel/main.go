// Parallel out-of-core execution on the simulated Global Arrays / Disk
// Resident Arrays cluster: synthesize the four-index transform for the
// aggregate memory of 1, 2, and 4 processes and measure the collective
// I/O wall-clock on per-process local disks (the Table 4 experiment).
// Doubling the process count doubles both the aggregate memory (less
// redundant I/O) and the aggregate disk bandwidth, so the speedup is
// superlinear.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ga"
	"repro/internal/loops"
	"repro/internal/machine"
)

func main() {
	log.SetFlags(0)
	n, v := int64(140), int64(120)
	perNode := machine.OSCItanium2()

	fmt.Printf("four-index transform (N=%d, V=%d), %d GB per node\n\n",
		n, v, perNode.MemoryLimit/machine.GB)
	fmt.Println("procs  total mem  I/O volume (GB)   wall-clock I/O (s)")

	var base float64
	for _, procs := range []int{1, 2, 4} {
		cfg := perNode
		cfg.MemoryLimit = perNode.MemoryLimit * int64(procs)
		s, err := core.SynthesizeOpts(context.Background(), loops.FourIndexAbstract(n, v),
			core.WithMachine(cfg), core.WithSeed(1))
		if err != nil {
			log.Fatal(err)
		}
		cluster, err := ga.NewCluster(procs, perNode.Disk, false)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := exec.Run(s.Plan, cluster, nil, exec.Options{DryRun: true}); err != nil {
			log.Fatal(err)
		}
		agg := cluster.Stats()
		t := cluster.Time()
		if procs == 1 {
			base = t
		}
		fmt.Printf("%5d  %6d GB  %15.1f   %12.1f  (%.2fx)\n",
			procs, cfg.MemoryLimit/machine.GB,
			float64(agg.BytesRead+agg.BytesWritten)/float64(machine.GB),
			t, base/t)
		cluster.Close()
	}
	fmt.Println("\nNote the superlinear scaling: more aggregate memory shrinks the")
	fmt.Println("I/O volume while more local disks raise aggregate bandwidth.")
}
