package sweep

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/ring"
)

func opt() Options { return Options{Seed: 1, Evals: 60000} }

func TestMemoryLimitSweepMonotone(t *testing.T) {
	limits := []int64{1 * machine.GB, 2 * machine.GB, 4 * machine.GB}
	s, err := MemoryLimit(func() *loops.Program {
		return loops.FourIndexAbstract(140, 120)
	}, limits, opt())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
	for i := 1; i < len(s.Points); i++ {
		prev := s.Points[i-1].Values["predicted_s"]
		cur := s.Points[i].Values["predicted_s"]
		if cur > prev*1.05 {
			t.Fatalf("predicted time rose with memory: %g → %g", prev, cur)
		}
	}
	for _, p := range s.Points {
		m, pr := p.Values["measured_s"], p.Values["predicted_s"]
		if m <= 0 || m > pr*1.000001 {
			t.Fatalf("measured %g vs predicted %g inconsistent", m, pr)
		}
	}
}

// TestWarmSweepNeverWorseAndCheaper: the warm-started memory-limit sweep
// must produce points no worse than the cold sweep's (never-worse
// property of warm starting — the solver evaluates the remapped previous
// plan first) while spending strictly fewer total solver evaluations.
func TestWarmSweepNeverWorseAndCheaper(t *testing.T) {
	limits := []int64{1 * machine.GB, 2 * machine.GB, 4 * machine.GB}
	build := func() *loops.Program { return loops.FourIndexAbstract(140, 120) }

	cold, err := MemoryLimit(build, limits, opt())
	if err != nil {
		t.Fatal(err)
	}
	warmOpt := opt()
	warmOpt.Warm = true
	warmOpt.Patience = 5000
	warm, err := MemoryLimit(build, limits, warmOpt)
	if err != nil {
		t.Fatal(err)
	}

	coldEvals, warmEvals := 0.0, 0.0
	for i := range limits {
		c, w := cold.Points[i].Values, warm.Points[i].Values
		if w["predicted_s"] > c["predicted_s"]*1.05 {
			t.Fatalf("limit %d: warm predicted %g worse than cold %g",
				limits[i], w["predicted_s"], c["predicted_s"])
		}
		coldEvals += c["solver_evals"]
		warmEvals += w["solver_evals"]
	}
	if warmEvals >= coldEvals {
		t.Fatalf("warm sweep spent %g evals, cold %g — no saving", warmEvals, coldEvals)
	}
	// The warm sweep still honors the blow-up curve: predicted time
	// non-increasing as memory grows.
	for i := 1; i < len(warm.Points); i++ {
		if warm.Points[i].Values["predicted_s"] > warm.Points[i-1].Values["predicted_s"]*1.05 {
			t.Fatalf("warm predicted time rose with memory: %+v", warm.Points)
		}
	}
}

// TestPortfolioSweepDeterministic: a portfolio-enabled sweep is
// reproducible point for point.
func TestPortfolioSweepDeterministic(t *testing.T) {
	limits := []int64{1 * machine.GB, 2 * machine.GB}
	build := func() *loops.Program { return loops.FourIndexAbstract(140, 120) }
	po := opt()
	po.Portfolio = 4
	a, err := MemoryLimit(build, limits, po)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MemoryLimit(build, limits, po)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		for _, col := range a.Columns {
			if a.Points[i].Values[col] != b.Points[i].Values[col] {
				t.Fatalf("point %d column %s differs: %g vs %g",
					i, col, a.Points[i].Values[col], b.Points[i].Values[col])
			}
		}
	}
}

func TestProcessorsSweep(t *testing.T) {
	s, err := Processors(140, 120, []int{1, 2, 4}, opt())
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock decreases; I/O volume never increases with more memory.
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Values["wallclock_s"] >= s.Points[i-1].Values["wallclock_s"] {
			t.Fatalf("wall clock not decreasing: %+v", s.Points)
		}
		if s.Points[i].Values["volume_gb"] > s.Points[i-1].Values["volume_gb"]*1.05 {
			t.Fatalf("volume rose with procs: %+v", s.Points)
		}
	}

	// Pinned to the bit to what the former GA/DRA cluster simulator
	// (internal/ga) measured: a ring is the same block
	// distribution, so it costs the same, shard by shard.
	o := opt()
	for i, pin := range []struct {
		procs         int
		wall, volume  float64
		reads, writes int64 // sub-operations on every shard
	}{
		{1, 337.619552, 14.629864692687988, 184, 14},
		{2, 51.604175999999995, 4.407668113708496, 8, 5},
		{4, 25.797088000000002, 4.407668113708496, 5, 1},
	} {
		if v := s.Points[i].Values; v["wallclock_s"] != pin.wall || v["volume_gb"] != pin.volume {
			t.Fatalf("P=%d: point %v, want wallclock %v volume %v", pin.procs, v, pin.wall, pin.volume)
		}
		cfg := machine.OSCItanium2()
		cfg.MemoryLimit *= int64(pin.procs)
		syn, err := o.synthesize(loops.FourIndexAbstract(140, 120), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ring.New(ring.Options{Shards: pin.procs, Replicas: 1, Disk: cfg.Disk})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Run(syn.Plan, st, nil, exec.Options{DryRun: true}); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < pin.procs; k++ {
			if got := st.ShardStats(k); got.ReadOps != pin.reads || got.WriteOps != pin.writes {
				t.Fatalf("P=%d: shard %d served %d reads / %d writes, want %d / %d",
					pin.procs, k, got.ReadOps, got.WriteOps, pin.reads, pin.writes)
			}
		}
		st.Close()
	}
}

func TestProblemSizeSweep(t *testing.T) {
	s, err := ProblemSize([]int64{60, 100, 140}, 0.85, opt())
	if err != nil {
		t.Fatal(err)
	}
	// Predicted I/O grows with N.
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Values["predicted_s"] <= s.Points[i-1].Values["predicted_s"] {
			t.Fatalf("I/O time not growing with size: %+v", s.Points)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	s := Series{
		Name:    "demo",
		XLabel:  "x",
		Columns: []string{"a", "b"},
		Points: []Point{
			{X: 1, Values: map[string]float64{"a": 2, "b": 3}},
			{X: 4, Values: map[string]float64{"a": 5, "b": 6}},
		},
	}
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "x,a,b\n1,2,3\n4,5,6\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}
