package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/loops"
	"repro/internal/machine"
)

// TestMemoryBoundHoldsAcrossSeeds is the solver-to-plan contract on the
// paper's Table 3 configuration (AO-to-MO transform, N=140, V=120): for
// every feasible DCS result, the generated plan's static buffer memory
// must fit the machine limit the NLP constrained it by, and the
// independently re-derived verifier report (WithVerify, rule R2 among
// others) must come back clean.
func TestMemoryBoundHoldsAcrossSeeds(t *testing.T) {
	cfg := machine.OSCItanium2()
	prog := loops.FourIndexAbstract(140, 120)
	for _, seed := range []int64{1, 7, 42} {
		s, err := SynthesizeOpts(context.Background(), prog,
			WithMachine(cfg),
			WithStrategy(DCS),
			WithSeed(seed),
			WithMaxEvals(20000),
			WithVerify(),
		)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !s.Problem.Feasible(s.X) {
			t.Fatalf("seed %d: solver returned infeasible assignment", seed)
		}
		if got, limit := s.Plan.MemoryBytes(), cfg.MemoryLimit; got > limit {
			t.Fatalf("seed %d: plan memory %d exceeds limit %d", seed, got, limit)
		}
		if s.Verify == nil || !s.Verify.OK() {
			t.Fatalf("seed %d: verification report not clean: %v", seed, s.Verify)
		}
	}
}

// TestMoreMemoryNeverHurts checks the optimizer-level property behind
// Table 4: as the memory limit grows, the best synthesizable disk I/O
// time is non-increasing (every configuration feasible at the smaller
// limit stays feasible at the larger one).
func TestMoreMemoryNeverHurts(t *testing.T) {
	cfg := machine.OSCItanium2()
	prev := -1.0
	for _, gb := range []int64{1, 2, 4, 8} {
		c := cfg
		c.MemoryLimit = gb * machine.GB
		s, err := SynthesizeOpts(context.Background(), loops.FourIndexAbstract(140, 120),
			WithMachine(c), WithSeed(1))
		if err != nil {
			t.Fatalf("%dGB: %v", gb, err)
		}
		got := s.Predicted()
		// Allow 5% solver noise (the searches are independent).
		if prev > 0 && got > prev*1.05 {
			t.Fatalf("predicted time rose with more memory: %.1f @ %dGB (prev %.1f)", got, gb, prev)
		}
		prev = got
	}
}

// TestPredictedAboveIOLowerBound: no synthesized code can move less than
// one read of each input plus one write of the output.
func TestPredictedAboveIOLowerBound(t *testing.T) {
	prog := loops.FourIndexAbstract(140, 120)
	cfg := machine.OSCItanium2()
	s, err := SynthesizeOpts(context.Background(), prog, WithMachine(cfg), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	lower := 0.0
	for _, name := range prog.ArraysOfKind(loops.Input) {
		lower += float64(prog.Size(name)*8) / cfg.Disk.ReadBandwidth
	}
	for _, name := range prog.ArraysOfKind(loops.Output) {
		lower += float64(prog.Size(name)*8) / cfg.Disk.WriteBandwidth
	}
	if s.Predicted() < lower {
		t.Fatalf("predicted %.1f below the I/O lower bound %.1f — cost model broken", s.Predicted(), lower)
	}
}

func TestReportBreakdown(t *testing.T) {
	s, err := synthFig4(DCS)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Report()
	for _, want := range []string{"array", "placement", "buffer bytes", "A", "B", "T", "in memory"} {
		if !strings.Contains(r, want) {
			t.Fatalf("report missing %q:\n%s", want, r)
		}
	}
	// The per-array seconds must sum to (approximately) the objective.
	// Parse is overkill; instead check the report is non-empty per line
	// count: header + 5 arrays.
	lines := strings.Count(strings.TrimSpace(r), "\n")
	if lines != 5 {
		t.Fatalf("report has %d data rows, want 5:\n%s", lines, r)
	}
}
