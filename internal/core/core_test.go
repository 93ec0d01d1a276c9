package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// synthFig4 synthesizes the paper's Fig. 4 running example (two-index
// transform, 1 GB memory) with seed 1; extra options apply last.
func synthFig4(strategy Strategy, extra ...Option) (*Synthesis, error) {
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 1 * machine.GB
	opts := append([]Option{WithMachine(cfg), WithStrategy(strategy), WithSeed(1)}, extra...)
	return SynthesizeOpts(context.Background(), loops.TwoIndexFused(35000, 40000), opts...)
}

func TestSynthesizeDCSFig4(t *testing.T) {
	s, err := synthFig4(DCS)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Problem.Feasible(s.X) {
		t.Fatal("DCS synthesis returned infeasible assignment")
	}
	if s.Plan.MemoryBytes() > s.Model.Cfg.MemoryLimit {
		t.Fatalf("plan memory %d exceeds limit", s.Plan.MemoryBytes())
	}
	// The paper's Fig. 4 solution keeps T in memory.
	if !s.Assign.Selected["T"].InMemory {
		t.Errorf("expected T in memory, got %q", s.Assign.Selected["T"].Label)
	}
	if s.GenTime <= 0 || s.SolverEvals <= 0 {
		t.Fatal("bookkeeping missing")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, err := synthFig4(DCS)
	if err != nil {
		t.Fatal(err)
	}
	b, err := synthFig4(DCS)
	if err != nil {
		t.Fatal(err)
	}
	if a.Predicted() != b.Predicted() {
		t.Fatalf("non-deterministic synthesis: %g vs %g", a.Predicted(), b.Predicted())
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("decision vectors differ at %d", i)
		}
	}
}

func TestPredictedMatchesMeasuredFig4(t *testing.T) {
	// Table 3's headline property: predicted and measured disk I/O times
	// agree (our simulator shares the cost model modulo partial-tile
	// padding, so within a few percent).
	for _, strat := range []Strategy{DCS, UniformSampling} {
		s, err := synthFig4(strat, WithSampling(sampling.Options{MaxCombos: 100000}))
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.MeasureSim()
		if err != nil {
			t.Fatal(err)
		}
		measured := st.Time()
		predicted := s.Predicted()
		if measured > predicted*1.000001 {
			t.Fatalf("%v: measured %.1f exceeds predicted %.1f", strat, measured, predicted)
		}
		if measured < predicted*0.7 {
			t.Fatalf("%v: measured %.1f far below predicted %.1f — model mismatch", strat, measured, predicted)
		}
	}
}

func TestDCSBeatsUniformSamplingOnFig4(t *testing.T) {
	dcsS, err := synthFig4(DCS)
	if err != nil {
		t.Fatal(err)
	}
	us, err := synthFig4(UniformSampling, WithSampling(sampling.Options{MaxCombos: 1000000}))
	if err != nil {
		t.Fatal(err)
	}
	if dcsS.Predicted() > us.Predicted()*1.05 {
		t.Fatalf("DCS %.1f s worse than uniform sampling %.1f s", dcsS.Predicted(), us.Predicted())
	}
}

func TestSynthesizedCodeComputesCorrectResult(t *testing.T) {
	// End-to-end: synthesize for a small machine and verify numerics on
	// both backends for all strategies.
	nmn, nij := int64(12), int64(16)
	prog := loops.TwoIndexFused(nmn, nij)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(nmn, nij), 5)
	want, err := loops.Interpret(prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{DCS, UniformSampling, DCSConstrainedAnnealing, RandomSearch} {
		s, err := SynthesizeOpts(context.Background(), prog.Clone(),
			WithMachine(machine.Small(4<<10)), WithStrategy(strat), WithSeed(2), WithMaxEvals(20000))
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		got, stats, err := s.RunSim(inputs)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if d := tensor.MaxAbsDiff(got["B"], want["B"]); d > 1e-9 {
			t.Fatalf("%v: result differs by %g", strat, d)
		}
		if stats.ReadOps == 0 {
			t.Fatalf("%v: no I/O recorded", strat)
		}
	}
}

func TestFourIndexSynthesis(t *testing.T) {
	// The paper's experimental workload at (140,120): T1 must spill to
	// disk; the synthesis must be feasible under 2 GB.
	s, err := SynthesizeOpts(context.Background(), loops.FourIndexAbstract(140, 120), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Assign.Selected["T1"].InMemory {
		t.Fatal("T1 cannot fit in memory at paper scale")
	}
	if s.Plan.MemoryBytes() > machine.OSCItanium2().MemoryLimit {
		t.Fatalf("memory %d over limit", s.Plan.MemoryBytes())
	}
	st, err := s.MeasureSim()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Time()-s.Predicted())/s.Predicted() > 0.3 {
		t.Fatalf("measured %.1f vs predicted %.1f diverge", st.Time(), s.Predicted())
	}
}

func TestAMPLAndSummary(t *testing.T) {
	s, err := synthFig4(DCS)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.AMPL(), "minimize disk_io_cost") {
		t.Fatal("AMPL output malformed")
	}
	sum := s.Summary()
	for _, want := range []string{"DCS", "predicted disk I/O time", "buffer memory"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := SynthesizeOpts(context.Background(), nil); err == nil {
		t.Error("nil program must error")
	}
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 0
	if _, err := synthFig4(DCS, WithMachine(cfg)); err == nil {
		t.Error("invalid machine must error")
	}
	if _, err := synthFig4(Strategy(99)); err == nil {
		t.Error("unknown strategy must error")
	}
	// Memory so tight no placement exists.
	cfg.MemoryLimit = 16
	if _, err := synthFig4(DCS, WithMachine(cfg)); err == nil {
		t.Error("impossible memory limit must error")
	}
	if Strategy(99).String() == "" || DCS.String() != "DCS" {
		t.Error("Strategy.String wrong")
	}
}

func TestInfeasibleBudgetReported(t *testing.T) {
	// Feasible placements exist at tile-one, but the min-block constraint
	// cannot be satisfied together with a tiny memory limit → the solver
	// must report infeasibility as an error.
	cfg := machine.Small(1 << 20)
	cfg.Disk.MinReadBlock = 16 * machine.MB
	cfg.Disk.MinWriteBlock = 16 * machine.MB
	_, err := SynthesizeOpts(context.Background(), loops.TwoIndexFused(2000, 2000),
		WithMachine(cfg), WithSeed(5), WithMaxEvals(5000))
	if err == nil {
		t.Fatal("expected infeasibility error")
	}
}
