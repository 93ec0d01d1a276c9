package exec

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
)

// paperDryRunPlan is the four-index transform at the paper's larger size
// (N=190, V=180) on the OSC Itanium-2 model with a quarter-gigabyte
// budget, tiles and placements pinned from a DLM solution: a
// 13 594-section-operation dry run whose cost is all engine bookkeeping.
func paperDryRunPlan(tb testing.TB) (*codegen.Plan, machine.Config) {
	tb.Helper()
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 1 << 28
	p := buildProblem(tb, loops.FourIndexAbstract(190, 180), cfg)
	labels := map[string]string{
		"A": "read leaf", "B": "write above sT",
		"C1": "read above aT", "C2": "read above aT", "C3": "read above aT", "C4": "read above aT",
		"T1": "disk: write above sT, read above sT (read required)", "T2": "in memory", "T3": "in memory",
	}
	want := nlp.Assignment{
		Tiles:    map[string]int64{"a": 20, "b": 36, "c": 60, "d": 15, "p": 190, "q": 38, "r": 5, "s": 95},
		Selected: map[string]*placement.Candidate{},
	}
	for name, label := range labels {
		want.Selected[name] = &placement.Candidate{Label: label}
	}
	x, matched := p.EncodeAssignment(want)
	if matched != len(labels) || !p.Feasible(x) {
		tb.Fatalf("pinned plan matched %d of %d choices (feasible %v)", matched, len(labels), p.Feasible(x))
	}
	plan, err := codegen.Generate(p, x)
	if err != nil {
		tb.Fatal(err)
	}
	return plan, cfg
}

// goroutinePeak wraps a backend and samples runtime.NumGoroutine on every
// section operation, keeping the highest count seen.
type goroutinePeak struct {
	disk.Backend
	mu   sync.Mutex
	peak int
}

func (g *goroutinePeak) sample() {
	n := runtime.NumGoroutine()
	g.mu.Lock()
	g.peak = max(g.peak, n)
	g.mu.Unlock()
}

func (g *goroutinePeak) Create(name string, dims []int64) (disk.Array, error) {
	a, err := g.Backend.Create(name, dims)
	if err != nil {
		return nil, err
	}
	return &goroutinePeakArray{Array: a, g: g}, nil
}

type goroutinePeakArray struct {
	disk.Array
	g *goroutinePeak
}

func (a *goroutinePeakArray) ReadSection(lo, shape []int64, buf []float64) error {
	a.g.sample()
	return a.Array.ReadSection(lo, shape, buf)
}

func (a *goroutinePeakArray) WriteSection(lo, shape []int64, buf []float64) error {
	a.g.sample()
	return a.Array.WriteSection(lo, shape, buf)
}

// TestPipelineAllocsPerOp pins the per-operation cost of the pipelined
// schedule: on a bare cost-only Sim dry run of the paper-scale plan it
// allocates at most half an object per section operation more than the
// serial one, and with one compute worker it starts no goroutine — every
// step runs on the caller's.
func TestPipelineAllocsPerOp(t *testing.T) {
	plan, cfg := paperDryRunPlan(t)
	run := func(opt Options) disk.Stats {
		be := disk.NewSim(cfg.Disk, false)
		defer be.Close()
		opt.DryRun = true
		res, err := Run(plan, be, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	serialStats := run(Options{})
	ops := float64(serialStats.ReadOps + serialStats.WriteOps)
	if ops < 10000 {
		t.Fatalf("plan moves only %v sections; the per-op figures need a paper-scale plan", ops)
	}
	perOp := func(opt Options) float64 {
		return testing.AllocsPerRun(3, func() { run(opt) }) / ops
	}
	serial := perOp(Options{})
	piped := perOp(Options{Pipeline: true})
	t.Logf("allocations per section op: serial %.2f, pipelined %.2f", serial, piped)
	if piped > serial+0.5 {
		t.Errorf("pipelined engine allocates %.2f objects per section op, serial %.2f: more than 0.5 above", piped, serial)
	}

	base := runtime.NumGoroutine()
	be := &goroutinePeak{Backend: disk.NewSim(cfg.Disk, false)}
	defer be.Close()
	res, err := Run(plan, be, nil, Options{DryRun: true, Pipeline: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != serialStats {
		t.Fatalf("pipelined traffic %v != serial %v", res.Stats, serialStats)
	}
	if be.peak > base {
		t.Errorf("peak of %d goroutines during the run, %d before it: the pipelined run started %d", be.peak, base, be.peak-base)
	}
}

// BenchmarkDryRunEngines reports the per-section-operation wall time and
// allocations of both engines on a bare cost-only Sim dry run of the
// paper-scale plan: the engines' own bookkeeping, with no backend
// decorators and no compute.
func BenchmarkDryRunEngines(b *testing.B) {
	plan, cfg := paperDryRunPlan(b)
	for _, eng := range []struct {
		name string
		opt  Options
	}{
		{"serial", Options{DryRun: true}},
		{"pipeline", Options{DryRun: true, Pipeline: true}},
	} {
		b.Run(eng.name, func(b *testing.B) {
			var ops int64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				be := disk.NewSim(cfg.Disk, false)
				res, err := Run(plan, be, nil, eng.opt)
				if err != nil {
					b.Fatal(err)
				}
				be.Close()
				ops = res.Stats.ReadOps + res.Stats.WriteOps
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(int64(b.N) * ops)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/section-op")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/section-op")
		})
	}
}
