package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/tiling"
)

// buildProblem assembles the pipeline up to the NLP for a test program.
func buildProblem(t testing.TB, prog *loops.Program, cfg machine.Config) *nlp.Problem {
	t.Helper()
	tree, err := tiling.Tile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return nlp.Build(m)
}

// runPlan generates and executes a plan on the data-mode simulator.
func runPlan(t *testing.T, p *nlp.Problem, x []int64, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, disk.Stats) {
	t.Helper()
	plan, err := codegen.Generate(p, x)
	if err != nil {
		t.Fatal(err)
	}
	be := disk.NewSim(p.Model.Cfg.Disk, true)
	defer be.Close()
	res, err := Run(plan, be, inputs, Options{})
	if err != nil {
		t.Fatalf("run failed:\n%s\nerror: %v", plan, err)
	}
	return res.Outputs, res.Stats
}

// TestAllPlacementCombinationsTwoIndex is the central correctness theorem
// of the repo: for the fused two-index transform, EVERY combination of
// candidate placements, across several tile shapes (dividing and
// non-dividing), executes to exactly the same values as the reference
// interpreter.
func TestAllPlacementCombinationsTwoIndex(t *testing.T) {
	nmn, nij := int64(6), int64(8)
	prog := loops.TwoIndexFused(nmn, nij)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)

	c := expr.TwoIndexTransform(nmn, nij)
	inputs := expr.RandomInputs(c, 99)
	want, err := loops.Interpret(prog, inputs)
	if err != nil {
		t.Fatal(err)
	}

	tileSets := []map[string]int64{
		{"i": 8, "j": 8, "m": 6, "n": 6}, // full: single tile
		{"i": 4, "j": 4, "m": 3, "n": 3}, // dividing
		{"i": 3, "j": 5, "m": 4, "n": 5}, // non-dividing (partial tiles)
		{"i": 1, "j": 1, "m": 1, "n": 1}, // degenerate single elements
	}

	// Enumerate the full cross product of candidate selections.
	nCombos := 1
	for ci := 0; ci < p.NumChoices(); ci++ {
		nCombos *= p.Choices[ci].M
	}
	if nCombos < 8 {
		t.Fatalf("expected a nontrivial selection space, got %d", nCombos)
	}
	for _, tiles := range tileSets {
		for combo := 0; combo < nCombos; combo++ {
			sel := map[string]int{}
			rest := combo
			for ci := 0; ci < p.NumChoices(); ci++ {
				m := p.Choices[ci].M
				sel[p.Choices[ci].Name] = rest % m
				rest /= m
			}
			x := p.Encode(tiles, sel)
			got, _ := runPlan(t, p, x, inputs)
			if d := tensor.MaxAbsDiff(got["B"], want["B"]); d > 1e-9 {
				t.Fatalf("tiles %v combo %d (%v): result differs by %g", tiles, combo, sel, d)
			}
		}
	}
}

func TestFourIndexExecutionMatchesReference(t *testing.T) {
	n, v := int64(7), int64(5)
	prog := loops.FourIndexAbstract(n, v)
	cfg := machine.Small(1 << 22)
	p := buildProblem(t, prog, cfg)

	c := expr.FourIndexTransform(n, v)
	inputs := expr.RandomInputs(c, 7)
	want, err := loops.Interpret(prog, inputs)
	if err != nil {
		t.Fatal(err)
	}

	// Default candidates with a few tile shapes, including partial tiles.
	for _, tiles := range []map[string]int64{
		{"p": 7, "q": 7, "r": 7, "s": 7, "a": 5, "b": 5, "c": 5, "d": 5},
		{"p": 3, "q": 4, "r": 2, "s": 5, "a": 2, "b": 3, "c": 4, "d": 1},
	} {
		x := p.Encode(tiles, nil)
		got, _ := runPlan(t, p, x, inputs)
		if d := tensor.MaxAbsDiff(got["B"], want["B"]); d > 1e-8 {
			t.Fatalf("tiles %v: four-index result differs by %g", tiles, d)
		}
	}
}

func TestFourIndexDiskIntermediates(t *testing.T) {
	// Force T2 and T3 to their disk candidates (selection index past the
	// in-memory candidate) and check correctness.
	n, v := int64(6), int64(4)
	prog := loops.FourIndexAbstract(n, v)
	cfg := machine.Small(1 << 22)
	p := buildProblem(t, prog, cfg)

	c := expr.FourIndexTransform(n, v)
	inputs := expr.RandomInputs(c, 8)
	want, err := loops.Interpret(prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	tiles := map[string]int64{"p": 3, "q": 2, "r": 3, "s": 2, "a": 2, "b": 2, "c": 3, "d": 2}
	sel := map[string]int{}
	for ci := 0; ci < p.NumChoices(); ci++ {
		name := p.Choices[ci].Name
		// Select the last candidate everywhere: for intermediates that is
		// always a disk strategy; for I/O arrays an outer placement.
		sel[name] = p.Choices[ci].M - 1
	}
	x := p.Encode(tiles, sel)
	got, stats := runPlan(t, p, x, inputs)
	if d := tensor.MaxAbsDiff(got["B"], want["B"]); d > 1e-8 {
		t.Fatalf("disk-intermediate run differs by %g", d)
	}
	if stats.WriteOps == 0 || stats.ReadOps == 0 {
		t.Fatal("disk intermediates must produce I/O traffic")
	}
}

func TestFileBackendMatchesSim(t *testing.T) {
	nmn, nij := int64(5), int64(6)
	prog := loops.TwoIndexFused(nmn, nij)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(nmn, nij), 3)

	tiles := map[string]int64{"i": 2, "j": 3, "m": 2, "n": 3}
	x := p.Encode(tiles, nil)
	plan, err := codegen.Generate(p, x)
	if err != nil {
		t.Fatal(err)
	}

	sim := disk.NewSim(cfg.Disk, true)
	simRes, err := Run(plan, sim, inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := disk.NewFileStore(t.TempDir(), cfg.Disk)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fileRes, err := Run(plan, fs, inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(simRes.Outputs["B"], fileRes.Outputs["B"]); d != 0 {
		t.Fatalf("file backend differs from simulator by %g", d)
	}
	if simRes.Stats != fileRes.Stats {
		t.Fatalf("modelled stats differ between backends: %+v vs %+v", simRes.Stats, fileRes.Stats)
	}
}

func TestDryRunMatchesDataRunIO(t *testing.T) {
	// The dry run must produce exactly the same I/O statistics as a real
	// execution — it is the paper-scale measurement path.
	nmn, nij := int64(6), int64(8)
	prog := loops.TwoIndexFused(nmn, nij)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(nmn, nij), 4)

	for combo := 0; combo < 4; combo++ {
		sel := map[string]int{"A": combo % 2, "B": combo / 2}
		x := p.Encode(map[string]int64{"i": 3, "j": 5, "m": 2, "n": 4}, sel)
		plan, err := codegen.Generate(p, x)
		if err != nil {
			t.Fatal(err)
		}
		data := disk.NewSim(cfg.Disk, true)
		dataRes, err := Run(plan, data, inputs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dry := disk.NewSim(cfg.Disk, false)
		dryRes, err := Run(plan, dry, nil, Options{DryRun: true})
		if err != nil {
			t.Fatal(err)
		}
		if dataRes.Stats != dryRes.Stats {
			t.Fatalf("combo %d: dry-run stats %+v differ from data-run %+v", combo, dryRes.Stats, dataRes.Stats)
		}
	}
}

func TestDryRunAtPaperScale(t *testing.T) {
	// The Fig. 4 configuration: N=35000/40000, terabyte-scale virtual
	// arrays; the dry run must execute in reasonable time.
	prog := loops.TwoIndexFused(35000, 40000)
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 1 * machine.GB
	p := buildProblem(t, prog, cfg)
	x := p.Encode(map[string]int64{"i": 3000, "j": 3000, "m": 3000, "n": 3000}, nil)
	plan, err := codegen.Generate(p, x)
	if err != nil {
		t.Fatal(err)
	}
	be := disk.NewSim(cfg.Disk, false)
	res, err := Run(plan, be, nil, Options{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BytesRead == 0 || res.Stats.Time() <= 0 {
		t.Fatalf("paper-scale dry run produced no I/O: %+v", res.Stats)
	}
	// A's data alone is 12.8 GB; total reads must exceed it.
	if res.Stats.BytesRead < 40000*40000*8 {
		t.Fatalf("reads %d below the size of A", res.Stats.BytesRead)
	}
}

// heapProbe samples the live heap (after a forced collection) from inside
// the backend every `every` reads, so a test sees memory mid-run rather
// than after the engine has let go of it.
type heapProbe struct {
	disk.Backend
	every int64
	reads atomic.Int64
	mu    sync.Mutex
	peak  uint64
}

func (h *heapProbe) Create(name string, dims []int64) (disk.Array, error) {
	a, err := h.Backend.Create(name, dims)
	return &heapProbeArray{Array: a, h: h}, err
}

type heapProbeArray struct {
	disk.Array
	h *heapProbe
}

func (a *heapProbeArray) ReadSection(lo, shape []int64, buf []float64) error {
	if a.h.reads.Add(1)%a.h.every == 0 {
		a.h.mu.Lock()
		a.h.peak = max(a.h.peak, liveHeap())
		a.h.mu.Unlock()
	}
	return a.Array.ReadSection(lo, shape, buf)
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDryRunLongUnitBoundedMemory runs a dry run whose top-level loop has
// a single iteration of more than 10^5 steps: the engine streams steps
// from the walker to the scheduler, so memory held mid-unit stays under a
// fixed ceiling under both schedules instead of growing with the unit's
// length.
func TestDryRunLongUnitBoundedMemory(t *testing.T) {
	n := int64(128)
	prog := loops.TwoIndexFused(n, n)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	plan, err := codegen.Generate(p, p.Encode(map[string]int64{"i": n, "j": 1, "m": 1, "n": 1}, nil))
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 4 << 20
	for _, opt := range []Options{{DryRun: true}, {DryRun: true, Pipeline: true}} {
		probe := &heapProbe{Backend: disk.NewSim(cfg.Disk, false), every: 20000}
		before := liveHeap()
		res, err := Run(plan, probe, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ReadOps < 50000 || res.Pipeline != nil && res.Pipeline.Barriers != 2 {
			t.Fatalf("pipeline=%v: want one long unit behind the init pass, got %v, %+v", opt.Pipeline, res.Stats, res.Pipeline)
		}
		if probe.peak > before+ceiling {
			t.Errorf("pipeline=%v: live heap grew by %d bytes mid-unit over %d section reads, ceiling %d",
				opt.Pipeline, probe.peak-before, res.Stats.ReadOps, ceiling)
		}
		probe.Close()
	}
}

func TestMissingInputError(t *testing.T) {
	prog := loops.TwoIndexFused(4, 4)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	plan, err := codegen.Generate(p, p.Encode(map[string]int64{"i": 2, "j": 2, "m": 2, "n": 2}, nil))
	if err != nil {
		t.Fatal(err)
	}
	be := disk.NewSim(cfg.Disk, true)
	if _, err := Run(plan, be, map[string]*tensor.Tensor{}, Options{}); err == nil {
		t.Fatal("missing inputs must error")
	}
}

func TestPlanMemoryWithinLimitWhenFeasible(t *testing.T) {
	prog := loops.TwoIndexFused(30, 40)
	cfg := machine.Small(64 << 10)
	p := buildProblem(t, prog, cfg)
	x := p.Encode(map[string]int64{"i": 10, "j": 10, "m": 10, "n": 10}, nil)
	if !p.Feasible(x) {
		t.Skip("hand point infeasible; adjust test")
	}
	plan, err := codegen.Generate(p, x)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MemoryBytes() > cfg.MemoryLimit {
		t.Fatalf("plan memory %d exceeds limit %d despite feasible x", plan.MemoryBytes(), cfg.MemoryLimit)
	}
}

func TestPredictedDominatesMeasured(t *testing.T) {
	// The predictor pads partial tiles, so measured bytes ≤ predicted
	// bytes must hold for any configuration.
	prog := loops.TwoIndexFused(35, 47) // awkward sizes: many partial tiles
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	for _, tiles := range []map[string]int64{
		{"i": 10, "j": 9, "m": 8, "n": 33},
		{"i": 47, "j": 47, "m": 35, "n": 35},
	} {
		x := p.Encode(tiles, nil)
		plan, err := codegen.Generate(p, x)
		if err != nil {
			t.Fatal(err)
		}
		be := disk.NewSim(cfg.Disk, false)
		res, err := Run(plan, be, nil, Options{DryRun: true})
		if err != nil {
			t.Fatal(err)
		}
		measured := float64(res.Stats.BytesRead + res.Stats.BytesWritten)
		predicted := plan.PredictedReadBytes + plan.PredictedWriteBytes
		if measured > predicted*(1+1e-9) {
			t.Fatalf("tiles %v: measured bytes %.0f exceed predicted %.0f", tiles, measured, predicted)
		}
	}
}
