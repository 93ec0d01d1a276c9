// Parallel out-of-core execution on the Global Arrays / Disk Resident
// Arrays block distribution (an R=1 ring, one local disk per
// process): synthesize the four-index transform for the aggregate memory
// of 1, 2, and 4 processes and measure the collective I/O wall-clock
// (the Table 4 experiment). Doubling the process count doubles both the
// aggregate memory (less redundant I/O) and the aggregate disk
// bandwidth, so the speedup is superlinear.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/ring"
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
		st, err := ring.New(ring.Options{Shards: procs, Replicas: 1, Disk: perNode.Disk})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := exec.Run(s.Plan, st, nil, exec.Options{DryRun: true}); err != nil {
			log.Fatal(err)
		}
		agg := st.AggregateStats()
		t := st.Time()
		if procs == 1 {
			base = t
		}
		fmt.Printf("%5d  %6d GB  %15.1f   %12.1f  (%.2fx)\n",
			procs, cfg.MemoryLimit/machine.GB,
			float64(agg.BytesRead+agg.BytesWritten)/float64(machine.GB),
			t, base/t)
		st.Close()
	}
	fmt.Println("\nNote the superlinear scaling: more aggregate memory shrinks the")
	fmt.Println("I/O volume while more local disks raise aggregate bandwidth.")
}
