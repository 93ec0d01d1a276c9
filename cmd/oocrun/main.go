// Command oocrun synthesizes and executes an out-of-core contraction over
// real disk-resident arrays (".dra" files).
//
//	# stage random inputs, then contract them out-of-core:
//	oocrun -dir ./data -random 'A[i,j]=200x300,B[j,k]=300x150'
//	oocrun -dir ./data -spec 'C[i,k] = A[i,j] * B[j,k]' -mem 64k
//
//	# verify (or repair) the store's block checksums:
//	oocrun -dir ./data -scrub
//	oocrun -dir ./data -scrub-repair
//
// Index ranges are inferred from the arrays on disk. The synthesized
// code's I/O statistics and a per-array trace summary are printed.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/machine"
	"repro/internal/ooc"
	"repro/internal/ring"
	"repro/internal/trace"
	"repro/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oocrun: ")
	var (
		dir       = flag.String("dir", ".", "directory holding the .dra arrays")
		spec      = flag.String("spec", "", "contraction, e.g. 'C[i,k] = A[i,j] * B[j,k]'")
		random    = flag.String("random", "", "stage random arrays first, e.g. 'A[i,j]=200x300,B[j,k]=300x150'")
		mem       = flag.String("mem", "2g", "memory limit (e.g. 64k, 512m, 2g)")
		seed      = flag.Int64("seed", 1, "solver / data seed")
		portfolio = flag.Int("portfolio", 1, "race this many independently seeded solver lanes; first feasible convergence wins")
		workers   = flag.Int("workers", 1, "parallel compute workers")
		pipeline  = flag.Bool("pipeline", false, "also model the double-buffered schedule (prefetch + write-behind overlapping compute) and report its serial vs overlapped timeline")
		verifyP   = flag.Bool("verify", false, "run the static plan verifier before executing; a finding aborts the run")
		quiet     = flag.Bool("quiet", false, "suppress the synthesized code listing")
		savePlan  = flag.String("saveplan", "", "write the synthesized plan as JSON to this file")
		planFile  = flag.String("plan", "", "execute a previously saved plan instead of synthesizing")
		faults    = flag.String("faults", "", "inject a seeded fault schedule, e.g. 'seed=7,rate=0.05,torn=0.02,persistent=200,persistentops=2'")
		ringSpec  = flag.String("ring", "", "execute on a replicated in-memory data plane instead of .dra files, e.g. 'P=8,R=2' (P shards, R-way replication); -faults then applies per shard, and its shard= key confines the schedule to one replica")
		// recover is a Go builtin; the flag variable takes a suffix.
		recoverFlag = flag.Bool("recover", false, "retry transient disk faults with backoff and restart from the last checkpoint on persistent ones")
		scrub       = flag.Bool("scrub", false, "verify every block checksum of every array against the stored data (after the run, or standalone without -spec/-plan); unrepaired defects exit 1")
		scrubRepair = flag.Bool("scrub-repair", false, "like -scrub, but rebuild the checksum index of defective arrays to accept their current contents")
		scrubEvery  = flag.Int("scrub-interval", 0, "spread one scrub pass across the run instead of sweeping afterwards: verify the most suspect uncovered array every N unit barriers (0: post-run sweep; combines with -scrub-repair)")
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
	elog := obsFlags.Log()
	if *spec != "" {
		elog = elog.WithScenario(*spec)
	}

	cfg := machine.OSCItanium2()
	limit, err := cliutil.ParseBytes(*mem)
	if err != nil {
		log.Fatal(err)
	}
	cfg.MemoryLimit = limit

	var fcfg fault.Config
	if *faults != "" {
		fcfg, err = cliutil.ParseFaultSpec(*faults)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fault injection: %s\n", fcfg)
	}
	var retry *disk.RetryPolicy
	var recovery *exec.RecoveryOptions
	if *recoverFlag {
		retry = disk.DefaultRetryPolicy()
		recovery = &exec.RecoveryOptions{}
	}

	// Backend chain: FileStore -> fault injector (optional) -> trace
	// recorder, so injected faults exercise the same path real device
	// errors take and retried attempts appear in the trace. With -ring
	// the data plane is a replicated ring of simulated shards laid out as
	// GA/DRA's block distribution instead: faults wrap each shard inside
	// the ring, and reads fail over to a healthy replica before anything
	// reaches the engine.
	var store disk.Backend
	var inj *fault.Injector
	var rstore *ring.Store
	var rs cliutil.RingSpec
	if *ringSpec != "" {
		rs, err = cliutil.ParseRingSpec(*ringSpec)
		if err != nil {
			log.Fatal(err)
		}
		ropt := ring.Options{
			Shards:   rs.Shards,
			Replicas: rs.Replicas,
			Disk:     cfg.Disk,
			WithData: true,
			Retry:    retry,
			Metrics:  obsFlags.Registry(),
			Log:      elog,
		}
		if *faults != "" {
			ropt.Faults = &fcfg
		}
		// The shard-health plane is always on for ring runs: breakers and
		// hedged reads run on the modelled clock, so they cost nothing in
		// wall time and keep the run deterministic.
		ropt.Health = &health.Config{}
		rstore, err = ring.New(ropt)
		if err != nil {
			log.Fatal(err)
		}
		defer rstore.Close()
		store = rstore
		fmt.Printf("ring: %d shards, %d-way replication\n", rs.Shards, rs.Replicas)
	} else {
		fs, err := disk.NewFileStore(*dir, cfg.Disk)
		if err != nil {
			log.Fatal(err)
		}
		defer fs.Close()
		store = fs
		if *faults != "" {
			inj = fault.Wrap(fs, fcfg)
			inj.SetLog(elog)
			store = inj
		}
	}
	// checkScrub prints a run's scrub report; unrepaired defects exit
	// nonzero.
	checkScrub := func(rep *disk.ScrubReport) {
		if rep == nil {
			return
		}
		printScrub(rep)
		if !rep.OK() && !*scrubRepair {
			os.Exit(1)
		}
	}
	printResilience := func(rt exec.RetryStats, rep *exec.RecoveryReport) {
		if inj != nil {
			fmt.Printf("injected: %s\n", inj.Counts())
		}
		if rep != nil {
			fmt.Printf("recovery: %s\n", rep)
		} else if rt.FaultsSeen > 0 {
			fmt.Printf("retries: %d fault(s) absorbed by %d retry attempt(s), %.3f s\n",
				rt.FaultsSeen, rt.Retries, rt.RetrySeconds)
		}
	}
	// printRing reports the data plane's two-tier accounting: per-shard
	// modelled I/O (with any injected faults), and the ring's parallel
	// time — the slowest shard plus the modelled failover backoff.
	printRing := func() {
		if rstore == nil {
			return
		}
		fmt.Println("\n== ring ==")
		for i := 0; i < rs.Shards; i++ {
			tier := rstore.ShardReport(i)
			line := fmt.Sprintf("  shard %d: %s", i, rstore.ShardStats(i))
			if fi, ok := rstore.ShardBackend(i).(*fault.Injector); ok {
				line += fmt.Sprintf("; injected: %s", fi.Counts())
			}
			line += fmt.Sprintf("; breaker %s (ratio %.2f, err %.2f)",
				tier.Health.State, tier.Health.Ratio, tier.Health.ErrRate)
			for _, d := range tier.Demotions {
				line += fmt.Sprintf("; demoted %d× (%s)", d.Count, d.Reason)
			}
			fmt.Println(line)
		}
		fmt.Printf("  aggregate: %s\n", rstore.AggregateStats())
		fmt.Printf("  parallel I/O time %.2f s = slowest shard + %.3f s failover backoff\n",
			rstore.Time(), rstore.FailoverSeconds())
		if issued, won, cancelled := rstore.HedgeCounts(); issued > 0 {
			fmt.Printf("  hedged reads: %d issued, %d won, %d cancelled\n", issued, won, cancelled)
		}
		if opens, halfOpens, closes := rstore.BreakerTransitions(); opens > 0 {
			fmt.Printf("  breaker transitions: %d open, %d half-open, %d closed\n", opens, halfOpens, closes)
		}
		if tail := rstore.TailReadSeconds(); tail > 0 {
			fmt.Printf("  experienced front read %.2f s = charged + %.2f s tail (writes: %.2f s tail)\n",
				rstore.FrontReadSeconds(), tail, rstore.TailWriteSeconds())
		}
	}

	// xopt is the run's execution half, shared by saved-plan runs and
	// contractions (which add the synthesis fields).
	xopt := ooc.Options{
		Workers:       *workers,
		Pipeline:      *pipeline,
		Metrics:       obsFlags.Registry(),
		Tracer:        obsFlags.Tracer(),
		Log:           elog,
		Retry:         retry,
		Recovery:      recovery,
		Scrub:         *scrub && !*scrubRepair,
		ScrubRepair:   *scrubRepair,
		ScrubSchedule: *scrubEvery,
	}

	if *random != "" {
		// Staging goes to the store beneath any fault injector so the
		// ground-truth inputs land intact; on a ring the replicated write
		// path itself is the protection, so staging uses the front door.
		stageBE := store
		if inj != nil {
			stageBE = inj.Inner()
		}
		if err := stageRandom(stageBE, *random, *seed); err != nil {
			log.Fatal(err)
		}
		if rstore != nil {
			fmt.Printf("staged random arrays across %d shards\n", rs.Shards)
		} else {
			fmt.Printf("staged random arrays under %s\n", *dir)
		}
	}
	if *planFile != "" {
		raw, err := os.ReadFile(*planFile)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := codegen.UnmarshalPlan(raw)
		if err != nil {
			log.Fatal(err)
		}
		if *verifyP {
			rep := verify.Check(plan)
			if !rep.OK() {
				log.Fatalf("saved plan %q failed verification:\n%s", *planFile, rep)
			}
			fmt.Println(rep)
		}
		rec := trace.NewWithDisk(store, cfg.Disk)
		obsFlags.SetPhase("execute")
		res, err := ooc.Execute(rec, plan, xopt)
		if err != nil {
			obsFlags.Fatal(err)
		}
		fmt.Printf("executed saved plan %q\n%s\npredicted %.2f s, measured (modelled) %.2f s\n",
			*planFile, res.Stats, plan.Predicted, res.Stats.Time())
		printPipeline(res.Pipeline)
		printResilience(res.Retry, res.Recovery)
		printRing()
		fmt.Print(trace.FormatSummary(rec.Summary()))
		checkScrub(res.Scrub)
		return
	}
	if *spec == "" {
		if *scrub || *scrubRepair {
			// Standalone maintenance scrub over the store directory:
			// unrepaired defects exit nonzero so scripted scrubs (CI,
			// cron) can alarm on them.
			obsFlags.SetPhase("scrub")
			rep, err := disk.Scrub(store, disk.ScrubOptions{Repair: *scrubRepair, Metrics: obsFlags.Registry(), Log: elog})
			if err != nil {
				obsFlags.Fatal(err)
			}
			checkScrub(rep)
			return
		}
		if *random == "" {
			log.Fatal("need -spec, -plan, -scrub, and/or -random")
		}
		return
	}

	rec := trace.NewWithDisk(store, cfg.Disk)
	obsFlags.SetPhase("contract")
	xopt.Machine, xopt.Seed, xopt.Portfolio, xopt.Verify = cfg, *seed, *portfolio, *verifyP
	res, err := ooc.Contract(rec, *spec, xopt)
	if err != nil {
		obsFlags.Fatal(err)
	}
	if *verifyP {
		fmt.Println(res.Synthesis.Verify)
	}
	if !*quiet {
		fmt.Println("== synthesized concrete code ==")
		fmt.Print(res.Synthesis.Plan.String())
	}
	if *savePlan != "" {
		raw, err := res.Synthesis.Plan.MarshalJSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*savePlan, raw, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("plan saved to %s\n", *savePlan)
	}
	fmt.Println("\n== execution ==")
	fmt.Printf("%s\n", res.Stats)
	fmt.Printf("predicted %.2f s, measured (modelled) %.2f s\n",
		res.Synthesis.Predicted(), res.Stats.Time())
	printSolver(res.Synthesis)
	printPipeline(res.Pipeline)
	printResilience(res.Retry, res.Recovery)
	printRing()
	fmt.Println("\n== per-array I/O ==")
	fmt.Print(trace.FormatSummary(rec.Summary()))
	checkScrub(res.Scrub)
}

// printSolver reports how the synthesis search went: evaluation count
// and, for a portfolio run, which lane won the race.
func printSolver(s *core.Synthesis) {
	if s == nil || s.SolverLanes == 0 {
		return
	}
	if s.SolverLanes > 1 {
		fmt.Printf("solver: %d cost evaluations across %d lanes; lane %d won (seed %d, %s)\n",
			s.SolverEvals, s.SolverLanes, s.WinnerLane, s.WinnerSeed, s.WinnerStrategy)
		return
	}
	fmt.Printf("solver: %d cost evaluations (seed %d, %s)\n",
		s.SolverEvals, s.WinnerSeed, s.WinnerStrategy)
}

// printScrub reports a scrub sweep, one line per defective block.
func printScrub(rep *disk.ScrubReport) {
	fmt.Printf("%s\n", rep)
	for _, d := range rep.Defects {
		fmt.Printf("  defect: array %q block %d (stored %08x, computed %08x)\n",
			d.Array, d.Block, d.Stored, d.Computed)
	}
}

// printPipeline reports the pipelined engine's serial-vs-overlapped
// modelled I/O-critical-path timeline when the run used -pipeline.
func printPipeline(ps *exec.PipelineStats) {
	if ps == nil {
		return
	}
	fmt.Printf("pipelined: serial %.2f s -> overlapped %.2f s (%.2fx; %d reads prefetched, %d writes behind)\n",
		ps.SerialSeconds, ps.OverlappedSeconds, ps.Speedup(), ps.PrefetchedReads, ps.WriteBehindWrites)
}

// stageRandom parses "A[i,j]=200x300,B[j,k]=300x150" and creates the
// arrays with deterministic random contents, writing them tile by tile so
// arbitrarily large arrays never fully materialize in memory.
func stageRandom(be disk.Backend, spec string, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, part := range splitTop(spec) {
		part = strings.TrimSpace(part)
		eq := strings.SplitN(part, "=", 2)
		if len(eq) != 2 {
			return fmt.Errorf("malformed staging entry %q", part)
		}
		name := strings.TrimSpace(eq[0])
		if i := strings.IndexByte(name, '['); i >= 0 {
			name = name[:i]
		}
		var dims []int64
		for _, ds := range strings.Split(eq[1], "x") {
			v, err := strconv.ParseInt(strings.TrimSpace(ds), 10, 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("bad dimension in %q", part)
			}
			dims = append(dims, v)
		}
		a, err := be.Create(name, dims)
		if err != nil {
			return err
		}
		if err := fillRandom(a, dims, rng); err != nil {
			return err
		}
	}
	return nil
}

// splitTop splits a staging spec on commas outside index brackets, so
// "A[i,j]=200x300,B[j,k]=300x150" yields two entries.
func splitTop(spec string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range spec {
		switch r {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, spec[start:i])
				start = i + 1
			}
		}
	}
	return append(out, spec[start:])
}

// fillRandom writes random contents in row-panels.
func fillRandom(a disk.Array, dims []int64, rng *rand.Rand) error {
	if len(dims) == 0 {
		return a.WriteSection(nil, nil, []float64{rng.NormFloat64()})
	}
	rowSize := int64(1)
	for _, d := range dims[1:] {
		rowSize *= d
	}
	const panelElems = 1 << 20
	rowsPerPanel := panelElems / rowSize
	if rowsPerPanel < 1 {
		rowsPerPanel = 1
	}
	buf := make([]float64, rowsPerPanel*rowSize)
	for r := int64(0); r < dims[0]; r += rowsPerPanel {
		h := rowsPerPanel
		if r+h > dims[0] {
			h = dims[0] - r
		}
		b := buf[:h*rowSize]
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lo := make([]int64, len(dims))
		lo[0] = r
		shape := append([]int64(nil), dims...)
		shape[0] = h
		if err := a.WriteSection(lo, shape, b); err != nil {
			return err
		}
	}
	return nil
}
