// Command bench is the repo's benchmark: spec text in, verified output
// bytes out, on four workloads that each load a different layer, with
// six end-to-end metrics and a per-layer ledger timed from outside the
// layers. BENCHMARK.json at the repo root names every metric, unit,
// direction, bound and workload; README.md in this directory is the
// glossary.
//
//	go run -C bench . -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// Without -workload every workload runs in turn. The last line of
// standard output is one JSON object: correct, attempted, failed and the
// metrics (end-to-end with -trace 0, per-layer with -trace 1). The exit
// status is non-zero if any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// workloadNames lists the workloads in the order they run.
var workloadNames = []string{"synth-paper", "fourindex-files", "thin-io-files", "stack-dryrun"}

func newWorkload(name string, quick bool, outDir string) (workload, error) {
	scratch := filepath.Join(outDir, "scratch")
	switch name {
	case "synth-paper":
		return newSynthPaper(quick), nil
	case "fourindex-files":
		return newFourIndexFiles(quick, scratch), nil
	case "thin-io-files":
		return newThinIOFiles(quick, scratch), nil
	case "stack-dryrun":
		return newStackDryRun(quick), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all of "+fmt.Sprint(workloadNames)+")")
		seed      = flag.Int64("seed", 1, "derives tensor data and solver seeds; never sizes")
		seconds   = flag.Float64("seconds", 24, "how long to measure passes for (at least one pass runs)")
		trace     = flag.String("trace", "0", "1: alternate untraced and traced passes and report the per-layer ledger")
		quick     = flag.Bool("quick", false, "small sizes, one pass: a smoke test, not a measurement")
		outDir    = flag.String("out", ".bench_out", "directory for results.jsonl, trace-<workload>.json and scratch files")
		selfcheck = flag.Bool("selfcheck", false, "run each workload's first pass twice and fail unless every count and deterministic metric repeats")
		compare   = flag.Bool("compare", false, "compare two results.jsonl files given as arguments against the bounds in -benchmark")
		benchmark = flag.String("benchmark", filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json holding the bounds -compare applies")
	)
	flag.Parse()
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fatal(fmt.Errorf("-trace %q: want 0 or 1", *trace))
	}
	// go1.24 ignores the cgroup CPU quota; pin what the method states.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two results files, got %d arguments", flag.NArg()))
		}
		ok, err := compareFiles(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: traced, quick: *quick, outDir: *outDir}
	if *quick {
		cfg.seconds = 0
	}
	failed := false
	for _, n := range names {
		w, err := newWorkload(n, *quick, *outDir)
		if err != nil {
			fatal(err)
		}
		if *selfcheck {
			if err := selfCheck(w, cfg); err != nil {
				fmt.Printf("selfcheck %s: FAILED: %v\n", n, err)
				failed = true
			} else {
				fmt.Printf("selfcheck %s: ok\n", n)
			}
			continue
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			fatal(err)
		}
		if err := report(os.Stdout, res, *outDir); err != nil {
			fatal(err)
		}
		failed = failed || !res.Correct
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// report prints every metric by name with its unit, appends the run's
// record to <out>/results.jsonl, and ends with the one-line result
// object.
func report(w io.Writer, res *runResult, outDir string) error {
	fmt.Fprintf(w, "workload %s  seed %d  passes %d  GOMAXPROCS %d  ops %d  failed %d\n",
		res.Workload, res.Seed, res.Passes, res.GoMaxProcs, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.9g %s\n", n, m.Value, m.Unit)
	}
	if res.TraceFile != "" {
		fmt.Fprintln(w, "  spans of the last traced pass:", res.TraceFile)
	}
	if s := res.SynthOps; s != nil {
		fmt.Fprintf(w, "  synthesis latency: n=%d median %.4f s", s.N, s.MedianS)
		if s.Percentile > 0 {
			fmt.Fprintf(w, ", p%d %.4f s", s.Percentile, s.TailS)
		}
		fmt.Fprintln(w)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	record, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(record, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}
