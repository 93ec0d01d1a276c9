package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/disk"
)

// workload is one fixed operation list. setUp prepares everything a pass
// needs — inputs, staged files, references, pinned plans — and runs one
// warm-up operation; pass runs the operation list once and checks every
// output. A pass with a tracer calls the layers one by one and fills
// passRec.layer; one without calls only the façade entry points.
type workload interface {
	name() string
	setUp(seed int64) error
	pass(tr *tracer, n int) *passRec
	tearDown()
}

// passRec is the account of one pass. Only front-end steps, plan
// production and execution count towards the end-to-end times: staging
// and output checks stay outside.
type passRec struct {
	e2e, synth, exec time.Duration
	predicted        []float64 // Predicted() of every synthesis
	fits             []float64 // fitRatio of every executed plan
	ops, failed      int
	failures         []string
	counts           map[string]float64 // deterministic for a seed
	synthOps         []float64          // seconds per synthesis
	layer            map[string]float64 // per-layer ledger (traced passes)
}

func newPassRec() *passRec {
	return &passRec{counts: map[string]float64{}, layer: map[string]float64{}}
}

// op accounts one attempted operation; a non-nil error fails it.
func (p *passRec) op(what string, err error) bool {
	p.ops++
	if err != nil {
		p.failed++
		p.failures = append(p.failures, what+": "+err.Error())
		return false
	}
	return true
}

func (p *passRec) addSynth(s *synthOut) {
	p.synth += s.wall
	p.e2e += s.wall
	p.synthOps = append(p.synthOps, s.wall.Seconds())
	p.predicted = append(p.predicted, s.plan.Predicted)
	p.counts["dcs.evals"] += float64(s.evals)
}

func (p *passRec) addExec(x *execOut, predicted float64) {
	p.exec += x.wall
	p.e2e += x.wall
	p.fits = append(p.fits, fitRatio(x.stats.Time(), predicted))
}

// addTraffic counts an execution's front-door operations and bytes.
func (p *passRec) addTraffic(st disk.Stats) {
	p.counts["exec.section_ops"] += float64(st.ReadOps + st.WriteOps)
	p.counts["disk.bytes"] += float64(st.BytesRead + st.BytesWritten)
}

// finish records the pass's deterministic end-to-end values next to its
// counts, for -selfcheck.
func (p *passRec) finish(plans []*synthOut) {
	p.counts["codegen.plan_digest"] = planDigest(plans)
	p.counts["plan_model_io_s"] = geoMean(p.predicted)
	// The pipelined engine accumulates modelled seconds concurrently, so
	// its total is reproducible to rounding, not to the bit.
	p.counts["model_fit_ratio"] = math.Round(median(p.fits)*1e9) / 1e9
}

// frontEndTimed runs fn (a front-end or constructor step) inside the
// end-to-end time.
func (p *passRec) frontEndTimed(fn func() error) error {
	start := time.Now()
	err := fn()
	p.e2e += time.Since(start)
	return err
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the record of one run of one workload: the contract's
// last-line object plus what -selfcheck and -compare read back.
type runResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Quick      bool               `json:"quick"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Passes     int                `json:"passes"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Metrics    map[string]metric  `json:"metrics"`
	Counts     map[string]float64 `json:"counts"` // first pass; deterministic for a seed
	// Samples holds the per-pass values the medians were taken over.
	Samples map[string][]float64 `json:"samples"`
	// TraceFile is where a traced run wrote its last traced pass's spans.
	TraceFile string `json:"trace_file,omitempty"`
	// SynthOps summarises per-synthesis latency over all passes.
	SynthOps *opSummary `json:"synth_ops,omitempty"`
}

// opSummary is a per-operation latency summary: the median and the
// highest percentile that still has ten samples beyond it.
type opSummary struct {
	N          int     `json:"n"`
	MedianS    float64 `json:"median_s"`
	Percentile int     `json:"percentile,omitempty"`
	TailS      float64 `json:"tail_s,omitempty"`
}

func summarizeOps(samples []float64) *opSummary {
	if len(samples) == 0 {
		return nil
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := &opSummary{N: len(s), MedianS: median(s)}
	if len(s) >= 20 {
		// The highest rank with ten samples beyond it.
		rank := len(s) - 11
		out.Percentile = 100 * (rank + 1) / len(s)
		out.TailS = s[rank]
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geoMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// setUpReps is how many times a run sets the workload up; setup_s is the
// median.
const setUpReps = 3

// runConfig carries the flags of one run.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	outDir  string
}

// runWorkload sets the workload up, measures passes for cfg.seconds, and
// folds them into a result. Untraced it reports the end-to-end metrics;
// traced it alternates an untraced and a traced pass and reports the
// per-layer ledger of the traced ones.
func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	defer w.tearDown()
	var setups []float64
	for i := 0; i < setUpReps; i++ {
		w.tearDown()
		runtime.GC()
		start := time.Now()
		if err := w.setUp(cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	res := &runResult{
		Workload: w.name(), Seed: cfg.seed, Trace: cfg.trace, Quick: cfg.quick,
		GoMaxProcs: runtime.GOMAXPROCS(0), Metrics: map[string]metric{},
	}
	var plain, traced []*passRec
	var lastSpans []span
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	begin := time.Now()
	var passWalls []float64
	for n := 0; ; n++ {
		if n > 0 && time.Since(begin).Seconds()+median(passWalls) > cfg.seconds {
			break
		}
		passStart := time.Now()
		runtime.GC()
		plain = append(plain, w.pass(nil, n))
		if cfg.trace {
			runtime.GC()
			tr := newTracer()
			traced = append(traced, w.pass(tr, n))
			lastSpans = tr.spans
		}
		passWalls = append(passWalls, time.Since(passStart).Seconds())
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	for _, p := range append(append([]*passRec(nil), plain...), traced...) {
		res.Attempted += p.ops
		res.Failed += p.failed
		res.Failures = append(res.Failures, p.failures...)
	}
	res.Passes = len(plain)
	res.Correct = res.Failed == 0
	res.Counts = plain[0].counts

	col := func(ps []*passRec, f func(*passRec) float64) []float64 {
		out := make([]float64, len(ps))
		for i, p := range ps {
			out[i] = f(p)
		}
		return out
	}
	e2e := func(p *passRec) float64 { return p.e2e.Seconds() }
	res.Samples = map[string][]float64{
		"setup_s":      setups,
		"e2e_wall_s":   col(plain, e2e),
		"synth_wall_s": col(plain, func(p *passRec) float64 { return p.synth.Seconds() }),
		"exec_wall_s":  col(plain, func(p *passRec) float64 { return p.exec.Seconds() }),
	}
	if !cfg.trace {
		var ops []float64
		for _, p := range plain {
			ops = append(ops, p.synthOps...)
		}
		res.SynthOps = summarizeOps(ops)
		for _, name := range []string{"setup_s", "e2e_wall_s", "synth_wall_s", "exec_wall_s"} {
			res.Metrics[name] = metric{median(res.Samples[name]), "s"}
		}
		res.Metrics["plan_model_io_s"] = metric{median(col(plain, func(p *passRec) float64 { return geoMean(p.predicted) })), "model_s"}
		res.Metrics["model_fit_ratio"] = metric{median(col(plain, func(p *passRec) float64 { return median(p.fits) })), "ratio"}
		return res, nil
	}

	// Per-layer ledger: the median over the traced passes of every row,
	// every row present on every workload (0: the layer is not on this
	// workload's path).
	passes := float64(len(plain) + len(traced))
	wholeRun := map[string]float64{
		"bench.trace_overhead_ratio": median(col(traced, e2e)) / median(col(plain, e2e)),
		"proc.peak_rss_mb":           peakRSSMB(),
		"proc.alloc_mb":              float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / passes,
		"proc.gc_pause_ms":           float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / passes,
		"proc.gomaxprocs":            float64(res.GoMaxProcs),
	}
	for _, row := range ledger {
		v, ok := wholeRun[row.name]
		if !ok {
			v = median(col(traced, func(p *passRec) float64 { return p.layer[row.name] }))
		}
		res.Metrics[row.name] = metric{v, row.unit}
	}
	// The traced pass checks it built the plans the untraced pass built.
	for i, p := range traced {
		if p.counts["codegen.plan_digest"] != plain[i].counts["codegen.plan_digest"] {
			res.Failed++
			res.Correct = false
			res.Failures = append(res.Failures, fmt.Sprintf("pass %d: traced plan digest %v differs from untraced %v",
				i, p.counts["codegen.plan_digest"], plain[i].counts["codegen.plan_digest"]))
		}
	}
	if cfg.outDir != "" {
		path, err := writeTrace(cfg.outDir, w.name(), lastSpans)
		if err != nil {
			return nil, err
		}
		res.TraceFile = path
	}
	return res, nil
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where there is none).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
