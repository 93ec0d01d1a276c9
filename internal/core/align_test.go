package core

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tiling"
	"repro/internal/trace"
)

func fig4ProblemForAlign(t *testing.T) *nlp.Problem {
	t.Helper()
	prog := loops.TwoIndexFused(35000, 40000)
	tree, err := tiling.Tile(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 1 * machine.GB
	// Drop the block-size constraints so deliberately scattered (small)
	// tiles are representable; alignment is the mechanism under test.
	cfg.Disk.MinReadBlock = 0
	cfg.Disk.MinWriteBlock = 0
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return nlp.Build(m)
}

func TestAlignLastDimTilesRaisesTiles(t *testing.T) {
	p := fig4ProblemForAlign(t)
	// Small last-dim tiles: j (last dim of A, C2), i (last of C1, T),
	// n (last of B).
	x := p.Encode(map[string]int64{"i": 64, "j": 64, "m": 2000, "n": 2000}, nil)
	if !p.Feasible(x) {
		t.Fatal("starting point must be feasible")
	}
	aligned := AlignLastDimTiles(p, x, 1024)
	if !p.Feasible(aligned) {
		t.Fatal("alignment must preserve feasibility")
	}
	a := p.Decode(aligned)
	for _, idx := range []string{"i", "j", "n"} {
		if a.Tiles[idx] < 512 {
			t.Fatalf("tile %s = %d, expected raised toward 1024", idx, a.Tiles[idx])
		}
	}
	// m indexes no array's last dimension; it must be untouched.
	if a.Tiles["m"] != 2000 {
		t.Fatalf("tile m changed to %d", a.Tiles["m"])
	}
}

func TestAlignLastDimTilesNoopWhenLarge(t *testing.T) {
	p := fig4ProblemForAlign(t)
	x := p.Encode(map[string]int64{"i": 4000, "j": 4000, "m": 4000, "n": 4000}, nil)
	aligned := AlignLastDimTiles(p, x, 1024)
	for i := range x {
		if aligned[i] != x[i] {
			t.Fatalf("alignment changed an already-aligned assignment at %d", i)
		}
	}
}

func TestAlignmentReducesRunAwareTime(t *testing.T) {
	// Execute the same program with scattered vs aligned tiles and compare
	// the refined seek-per-run time: alignment must win decisively.
	prog := loops.TwoIndexFused(400, 512)
	cfg := machine.Small(8 << 20)
	cfg.Disk = machine.OSCItanium2().Disk
	cfg.Disk.MinReadBlock = 0
	cfg.Disk.MinWriteBlock = 0
	tree, err := tiling.Tile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := nlp.Build(m)

	runAware := func(x []int64) float64 {
		plan, err := codegen.Generate(p, x)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewWithDisk(disk.NewSim(cfg.Disk, false), cfg.Disk)
		defer rec.Close()
		if _, err := exec.Run(plan, rec, nil, exec.Options{DryRun: true}); err != nil {
			t.Fatal(err)
		}
		dims := map[string][]int64{}
		for _, da := range plan.DiskArrays {
			dims[da.Name] = da.Dims
		}
		return trace.RunAwareTime(rec.Ops(), dims, cfg.Disk)
	}

	scattered := p.Encode(map[string]int64{"i": 200, "j": 8, "m": 200, "n": 8}, nil)
	aligned := AlignLastDimTiles(p, scattered, 512)
	ts, ta := runAware(scattered), runAware(aligned)
	if ta >= ts {
		t.Fatalf("alignment did not reduce run-aware time: %.2f vs %.2f", ta, ts)
	}
	if ts/ta < 2 {
		t.Fatalf("expected a decisive improvement, got %.2f vs %.2f", ts, ta)
	}
}

func TestRunsCounting(t *testing.T) {
	dims := []int64{10, 20, 30}
	cases := []struct {
		shape []int64
		want  int64
	}{
		{[]int64{10, 20, 30}, 1}, // whole array: one run
		{[]int64{2, 20, 30}, 1},  // full trailing dims merge
		{[]int64{2, 5, 30}, 2},   // full last dim: 5 consecutive rows merge per i0
		{[]int64{2, 5, 7}, 10},   // partial last dim: 2×5 rows
		{[]int64{1, 1, 1}, 1},    // single element
	}
	for _, c := range cases {
		if got := trace.Runs(dims, c.shape); got != c.want {
			t.Errorf("Runs(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}
