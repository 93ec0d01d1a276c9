package cachetile

import (
	"context"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tiling"
)

func fig4Plan(t *testing.T) *codegen.Plan {
	t.Helper()
	prog := loops.TwoIndexFused(35000, 40000)
	tree, err := tiling.Tile(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 1 * machine.GB
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := nlp.Build(m)
	plan, err := codegen.Generate(p, p.Encode(map[string]int64{"i": 2000, "j": 2000, "m": 2000, "n": 2000}, nil))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestBlockProgramStructure(t *testing.T) {
	plan := fig4Plan(t)
	var comp *codegen.Compute
	var find func(ns []codegen.Node)
	find = func(ns []codegen.Node) {
		for _, n := range ns {
			switch n := n.(type) {
			case *codegen.Loop:
				find(n.Body)
			case *codegen.Compute:
				if comp == nil {
					comp = n
				}
			}
		}
	}
	find(plan.Body)
	if comp == nil {
		t.Fatal("no compute block found")
	}
	prog, err := BlockProgram(plan, comp)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	// The block's "disk arrays" are the in-memory buffers; their extents
	// are the outer tile sizes.
	if got := prog.Ranges["i"]; got != 2000 {
		t.Fatalf("block extent i = %d, want tile 2000", got)
	}
	if len(prog.ArraysOfKind(loops.Output)) != 1 {
		t.Fatal("block must have one output buffer")
	}
	if len(prog.ArraysOfKind(loops.Input)) != 2 {
		t.Fatalf("block should have 2 input buffers, got %v", prog.ArraysOfKind(loops.Input))
	}
}

func TestOptimizePlanFig4(t *testing.T) {
	plan := fig4Plan(t)
	cache := ItaniumL3()
	results, err := OptimizePlan(plan, cache, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d blocks, want 2 (producer and consumer of T)", len(results))
	}
	for _, r := range results {
		if r.TrafficSeconds <= 0 {
			t.Fatalf("block %s: no traffic modelled", r.Statement)
		}
		// Cache buffers fit the cache.
		if mem := r.Synthesis.Plan.MemoryBytes(); mem > cache.CacheBytes {
			t.Fatalf("block %s: cache buffers %d exceed cache %d", r.Statement, mem, cache.CacheBytes)
		}
		// Cache tiles are within the block extents.
		for x, tl := range r.Tiles {
			if tl < 1 || tl > r.Synthesis.Model.Prog.Ranges[x] {
				t.Fatalf("block %s: tile %s=%d out of range", r.Statement, x, tl)
			}
		}
	}
}

func TestCacheTilingBeatsUnblocked(t *testing.T) {
	// The optimized cache tiles must beat the degenerate single-row
	// blocking (cache tile 1 along everything), mirroring the disk-level
	// result one level down.
	plan := fig4Plan(t)
	results, err := OptimizePlan(plan, ItaniumL3(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		p := r.Synthesis.Problem
		ones := map[string]int64{}
		for _, v := range p.TileVars {
			ones[v] = 1
		}
		naive := p.Objective(p.Encode(ones, nil))
		if r.TrafficSeconds >= naive {
			t.Fatalf("block %s: optimized %.4f not below unblocked %.4f", r.Statement, r.TrafficSeconds, naive)
		}
	}
}

func TestMachineForTranslation(t *testing.T) {
	c := ItaniumL3()
	m := c.machineFor()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.MemoryLimit != c.CacheBytes || m.Disk.MinReadBlock != c.LineBytes {
		t.Fatalf("translation wrong: %+v", m)
	}
}

// hierarchy synthesizes prog at the disk level (seed 1 unless opts set
// one) and cache-tiles every compute block of the plan with the same seed.
func hierarchy(t *testing.T, prog *loops.Program, cache CacheConfig, opts ...core.Option) (*core.Synthesis, []BlockResult) {
	t.Helper()
	s, err := core.SynthesizeOpts(context.Background(), prog, append([]core.Option{core.WithSeed(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := OptimizePlan(s.Plan, cache, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return s, blocks
}

func memorySeconds(blocks []BlockResult) float64 {
	total := 0.0
	for _, b := range blocks {
		total += b.TotalSeconds
	}
	return total
}

func TestHierarchicalSynthesisFig4(t *testing.T) {
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 1 * machine.GB
	s, blocks := hierarchy(t, loops.TwoIndexFused(35000, 40000), ItaniumL3(), core.WithMachine(cfg))
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(blocks))
	}
	for _, blk := range blocks {
		if blk.Executions <= 0 || blk.TotalSeconds <= 0 {
			t.Fatalf("block %s: executions %d, total %.3f", blk.Statement, blk.Executions, blk.TotalSeconds)
		}
	}
	diskS, memoryS, computeS := s.Predicted(), memorySeconds(blocks), s.ComputeSeconds()
	if diskS <= 0 || memoryS <= 0 || computeS <= 0 {
		t.Fatalf("missing level times: disk %.1f, memory %.1f, compute %.1f", diskS, memoryS, computeS)
	}
	// The two-index transform at this scale is two giant GEMMs: O(N³)
	// arithmetic over O(N²) data, so the hierarchy must be
	// arithmetic-dominated while disk I/O still exceeds cache traffic.
	if computeS < diskS {
		t.Fatalf("two-index at N=35000 should be compute-bound: compute %.1f vs disk %.1f", computeS, diskS)
	}
	if diskS < memoryS {
		t.Fatalf("disk (%.1f) should exceed cache traffic (%.1f)", diskS, memoryS)
	}
	rep := Breakdown(s, blocks)
	for _, want := range []string{"disk I/O:", "memory↔cache:", "arithmetic:", "dominant level: arithmetic"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("breakdown missing %q:\n%s", want, rep)
		}
	}
}

func TestFourIndexIsIOBoundInHierarchy(t *testing.T) {
	// The paper's evaluation workload: O(V·N⁴) flops over tens of GB of
	// intermediate traffic — disk I/O dominates.
	s, blocks := hierarchy(t, loops.FourIndexAbstract(140, 120), ItaniumL3(), core.WithMaxEvals(60000))
	if len(blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(blocks))
	}
	if s.Predicted() < s.ComputeSeconds() {
		t.Fatalf("four-index should be I/O-bound: disk %.1f vs compute %.1f", s.Predicted(), s.ComputeSeconds())
	}
	if rep := Breakdown(s, blocks); !strings.Contains(rep, "dominant level: disk I/O") {
		t.Fatalf("breakdown:\n%s", rep)
	}
}

func TestBlockExecutionsCount(t *testing.T) {
	s, blocks := hierarchy(t, loops.TwoIndexFused(12, 16),
		CacheConfig{CacheBytes: 1 << 10, LineBytes: 0, Latency: 1e-7, Bandwidth: 1e9},
		core.WithMachine(machine.Small(4<<10)), core.WithSeed(2), core.WithMaxEvals(20000))
	// Each block executes Π ceil(N/T) over its enclosing loops; verify
	// against a manual recount from the plan's tiles.
	tiles, ranges := s.Assign.Tiles, s.Model.Prog.Ranges
	trip := func(x string) int64 {
		return (ranges[x] + tiles[x] - 1) / tiles[x]
	}
	// Producer block under iT,nT,jT; consumer under iT,nT,mT.
	wantProd := trip("i") * trip("n") * trip("j")
	wantCons := trip("i") * trip("n") * trip("m")
	got := map[string]int64{}
	for _, blk := range blocks {
		got[blk.Statement] = blk.Executions
	}
	if got["T"] != wantProd {
		t.Fatalf("producer executions = %d, want %d", got["T"], wantProd)
	}
	if got["B"] != wantCons {
		t.Fatalf("consumer executions = %d, want %d", got["B"], wantCons)
	}
}
