// Command oocbench reproduces the paper's evaluation tables.
//
//	oocbench            # all tables at the paper's sizes
//	oocbench -table 2   # one table
//	oocbench -quick     # capped search budgets (seconds instead of minutes)
//	oocbench -pipeline  # add the pipelined-engine study (serial vs overlapped)
//	oocbench -faults 'seed=9,rate=0.02'
//	                    # add the fault-recovery study
//	oocbench -solver    # add the solver study (cold vs portfolio vs warm sweep)
//	oocbench -ring      # add the ring study (parallel I/O scaling, replication
//	                    # overhead, rebalance cost)
//	oocbench -gray      # add the gray-failure study (one-shard brownout:
//	                    # unmitigated vs health-plane tail)
//
// Table 2 compares code generation time between the uniform-sampling
// baseline (full logarithmic grid, brute force) and the DCS approach;
// Table 3 compares measured vs. predicted sequential disk I/O times of the
// generated codes on the simulated disk; Table 4 runs the generated
// parallel code on the GA/DRA block distribution (an R=1 ring) with 2
// and 4 processes.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/cliutil"
	"repro/internal/machine"
	"repro/internal/tables"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oocbench: ")
	var (
		table     = flag.Int("table", 0, "table to reproduce (1, 2, 3, 4; 0 = all)")
		quick     = flag.Bool("quick", false, "cap search budgets for a fast run")
		seed      = flag.Int64("seed", 1, "DCS solver seed")
		small     = flag.Bool("small", false, "only the (140,120) size")
		scaling   = flag.Bool("scaling", false, "also run the higher-order coupled-cluster scaling study")
		pipeline  = flag.Bool("pipeline", false, "also measure the pipelined schedule: serial vs overlapped I/O critical path")
		faults    = flag.String("faults", "", "also run the fault-recovery study under this schedule, e.g. 'seed=9,rate=0.02,persistent=50'")
		ringStudy = flag.Bool("ring", false, "also run the ring study: parallel I/O scaling, replication overhead, and rebalance cost on the replicated data plane at P=8..64")
		grayStudy = flag.Bool("gray", false, "also run the gray-failure study: a one-shard brownout on the R=2 ring, fault-free vs unmitigated vs health-plane-mitigated experienced read tail")
		solver    = flag.Bool("solver", false, "also run the solver study: cold vs portfolio vs warm-started sweep")
	)
	obsFlags := cliutil.RegisterObs()
	showVersion := cliutil.VersionFlag()
	flag.Parse()
	showVersion()
	if err := obsFlags.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := obsFlags.Finish(); err != nil {
			log.Print(err)
		}
	}()

	opt := tables.Options{Seed: *seed, Metrics: obsFlags.Registry(), Tracer: obsFlags.Tracer(), Log: obsFlags.Log()}
	if *quick {
		opt.SamplingCombos = 200000
		opt.DCSEvals = 60000
	}
	sizes := tables.PaperSizes
	if *small {
		sizes = sizes[:1]
	}

	run2 := func() {
		rows, err := tables.Table2(sizes, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatTable2(rows))
		for _, r := range rows {
			fmt.Printf("  (%d,%d): uniform sampling explored %d tile combinations; DCS used %d cost evaluations\n",
				r.Size.N, r.Size.V, r.UniformCombos, r.DCSEvals)
		}
		fmt.Println()
	}
	run3 := func() {
		rows, err := tables.Table3(sizes, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatTable3(rows))
	}
	run4 := func() {
		rows, err := tables.Table4(sizes[0], []int{2, 4}, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatTable4(rows))
	}

	run1 := func() {
		cfg := machine.OSCItanium2()
		fmt.Println("Table 1: configuration of the modelled system")
		fmt.Printf("  node: %s\n", cfg.Name)
		fmt.Printf("  memory limit for generated code: %d GB\n", cfg.MemoryLimit/machine.GB)
		fmt.Printf("  disk: %.0f ms seek, %.0f/%.0f MB/s read/write\n",
			cfg.Disk.SeekTime*1000, cfg.Disk.ReadBandwidth/1e6, cfg.Disk.WriteBandwidth/1e6)
		fmt.Printf("  min I/O blocks: %d MB read / %d MB write\n",
			cfg.Disk.MinReadBlock/machine.MB, cfg.Disk.MinWriteBlock/machine.MB)
		fmt.Printf("  flop rate: %.1f Gflop/s\n\n", cfg.FlopRate/1e9)
	}

	runPipeline := func() {
		rows, err := tables.TablePipeline(sizes, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatTablePipeline(rows))
		for _, r := range rows {
			fmt.Printf("  (%d,%d): %d reads prefetched, %d writes retired in the background\n",
				r.Size.N, r.Size.V, r.PrefetchedReads, r.WriteBehindWrites)
		}
		fmt.Println()
	}

	runRecovery := func() {
		fcfg, err := cliutil.ParseFaultSpec(*faults)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := tables.RecoveryStudy(sizes, fcfg, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatRecovery(rows, fcfg))
	}

	runRing := func() {
		rep, err := tables.RingStudy(sizes[0], []int{8, 16, 32, 64}, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatRingStudy(rep))
	}

	runGray := func() {
		rep, err := tables.GrayStudy(sizes[0], opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatGrayStudy(rep))
	}

	runSolver := func() {
		rows, err := tables.SolverStudy(sizes, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatSolver(rows))
	}

	runScaling := func() {
		workloads, err := tables.ScalingWorkloads()
		if err != nil {
			log.Fatal(err)
		}
		rows, err := tables.ScalingStudy(workloads, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatScaling(rows))
	}

	switch *table {
	case 0:
		run1()
		run2()
		run3()
		run4()
	case 1:
		run1()
	case 2:
		run2()
	case 3:
		run3()
	case 4:
		run4()
	default:
		log.Fatalf("unknown table %d (have 1, 2, 3, 4)", *table)
	}
	if *pipeline {
		runPipeline()
	}
	if *scaling {
		runScaling()
	}
	if *faults != "" {
		runRecovery()
	}
	if *ringStudy {
		runRing()
	}
	if *grayStudy {
		runGray()
	}
	if *solver {
		runSolver()
	}
}
