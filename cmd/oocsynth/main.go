// Command oocsynth synthesizes out-of-core code for a tensor contraction.
//
// The contraction is given as an einsum-style spec with index ranges:
//
//	oocsynth -spec 'B[m,n] = C1[m,i] * C2[n,j] * A[i,j]' \
//	         -ranges 'm=35000,n=35000,i=40000,j=40000' \
//	         -mem 1g -strategy dcs
//
// The tool runs the full pipeline of the paper: operation minimization,
// loop fusion of the built-in workloads (or the unfused lowering for
// arbitrary specs), tiling, candidate placement enumeration, NLP
// construction, solving, and concrete code generation. With -workload,
// one of the paper's built-in programs is synthesized instead:
// two-index (fused, Fig. 4) or four-index (Fig. 5).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/sampling"
	"repro/internal/tce"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oocsynth: ")
	var (
		spec       = flag.String("spec", "", "contraction spec, e.g. 'B[m,n] = C1[m,i] * C2[n,j] * A[i,j]'")
		ranges     = flag.String("ranges", "", "index ranges, e.g. 'm=35000,n=35000,i=40000,j=40000'")
		specFile   = flag.String("specfile", "", "path to a TCE spec file (range/index/tensor declarations + statements)")
		workload   = flag.String("workload", "", "built-in workload: two-index | four-index")
		n          = flag.Int64("n", 140, "N (p,q,r,s range / i,j range) for built-in workloads")
		v          = flag.Int64("v", 120, "V (a,b,c,d range / m,n range) for built-in workloads")
		mem        = flag.String("mem", "2g", "memory limit, e.g. 512m, 2g")
		strategy   = flag.String("strategy", "dcs", "dcs | sampling | csa | random")
		seed       = flag.Int64("seed", 1, "solver seed")
		evals      = flag.Int("evals", 0, "solver evaluation budget (0 = default)")
		combos     = flag.Int64("combos", 0, "cap on sampling grid combinations (0 = full grid)")
		ampl       = flag.Bool("ampl", false, "print the AMPL model fed to the solver")
		placements = flag.Bool("placements", false, "print the enumerated candidate placements")
		measure    = flag.Bool("measure", false, "execute the I/O structure on the simulated disk and report measured time")
		fuse       = flag.Bool("fuse", false, "apply greedy loop fusion before synthesis")
		report     = flag.Bool("report", false, "print the per-array cost breakdown")
		jsonOut    = flag.Bool("json", false, "print the synthesis result as JSON and exit")
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
	scenario := *spec
	if scenario == "" {
		scenario = *workload
	}
	elog := obsFlags.Log().WithScenario(scenario)

	prog, err := buildProgramExt(*workload, *spec, *specFile, *ranges, *n, *v)
	if err != nil {
		log.Fatal(err)
	}
	cfg := machine.OSCItanium2()
	limit, err := cliutil.ParseBytes(*mem)
	if err != nil {
		log.Fatal(err)
	}
	cfg.MemoryLimit = limit

	strat, err := parseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	obsFlags.SetPhase("synthesize")
	synthOpts := []core.Option{
		core.WithMachine(cfg),
		core.WithStrategy(strat),
		core.WithSeed(*seed),
		core.WithMaxEvals(*evals),
		core.WithSampling(sampling.Options{MaxCombos: *combos}),
		core.WithMetrics(obsFlags.Registry()),
		core.WithTracer(obsFlags.Tracer()),
		core.WithLog(elog),
	}
	if *fuse {
		synthOpts = append(synthOpts, core.WithAutoFuse())
	}
	s, err := core.SynthesizeOpts(context.Background(), prog, synthOpts...)
	if err != nil {
		obsFlags.Fatal(err)
	}
	prog = s.Model.Prog // reflects fusion

	if *jsonOut {
		raw, err := s.JSON()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(raw))
		return
	}

	fmt.Println("== abstract code ==")
	fmt.Print(prog.Declarations())
	fmt.Print(prog.String())
	if *placements {
		fmt.Println("\n== candidate placements ==")
		fmt.Print(s.Model.String())
	}
	if *ampl {
		fmt.Println("\n== AMPL model ==")
		fmt.Print(s.AMPL())
	}
	fmt.Println("\n== synthesis ==")
	fmt.Print(s.Summary())
	if *report {
		fmt.Println("\n== per-array breakdown ==")
		fmt.Print(s.Report())
	}
	fmt.Println("\n== concrete code ==")
	fmt.Print(s.Plan.String())
	if *measure {
		obsFlags.SetPhase("measure")
		st, err := s.MeasureSim()
		if err != nil {
			obsFlags.Fatal(err)
		}
		fmt.Printf("\n== measured (simulated disk) ==\n%s\ntotal %.1f s (predicted %.1f s)\n",
			st, st.Time(), s.Predicted())
	}
}

func buildProgramExt(workload, spec, specFile, ranges string, n, v int64) (*loops.Program, error) {
	if specFile != "" {
		src, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		parsed, err := tce.Parse(string(src))
		if err != nil {
			return nil, err
		}
		return parsed.Lower(specFile)
	}
	return buildProgram(workload, spec, ranges, n, v)
}

func buildProgram(workload, spec, ranges string, n, v int64) (*loops.Program, error) {
	switch workload {
	case "two-index":
		return loops.TwoIndexFused(v, n), nil
	case "four-index":
		return loops.FourIndexAbstract(n, v), nil
	case "":
	default:
		return nil, fmt.Errorf("unknown workload %q (two-index | four-index)", workload)
	}
	if spec == "" {
		return nil, fmt.Errorf("need -spec (with -ranges) or -workload")
	}
	rm, err := parseRanges(ranges)
	if err != nil {
		return nil, err
	}
	c, err := expr.Parse(spec, rm)
	if err != nil {
		return nil, err
	}
	plan, err := expr.Minimize(c, "T")
	if err != nil {
		return nil, err
	}
	return loops.FromPlan(plan)
}

func parseRanges(s string) (map[string]int64, error) {
	out := map[string]int64{}
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty -ranges")
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad range %q", part)
		}
		val, err := strconv.ParseInt(strings.TrimSpace(kv[1]), 10, 64)
		if err != nil || val <= 0 {
			return nil, fmt.Errorf("bad range value in %q", part)
		}
		out[strings.TrimSpace(kv[0])] = val
	}
	return out, nil
}

func parseStrategy(s string) (core.Strategy, error) {
	switch strings.ToLower(s) {
	case "dcs":
		return core.DCS, nil
	case "sampling", "uniform":
		return core.UniformSampling, nil
	case "csa":
		return core.DCSConstrainedAnnealing, nil
	case "random":
		return core.RandomSearch, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}
