package progen

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/tensor"
)

func TestGeneratedProgramsValidate(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := Generate(rng, Options{})
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
		if len(p.ArraysOfKind(loops.Output)) != 1 {
			t.Fatalf("seed %d: want exactly one output", seed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(7)), Options{})
	b := Generate(rand.New(rand.NewSource(7)), Options{})
	if a.String() != b.String() {
		t.Fatal("generation not deterministic")
	}
}

func TestFusedGenerationPreservesSemantics(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plain := Generate(rng, Options{})
		inputs := InputTensors(plain, rand.New(rand.NewSource(seed+1000)))
		want, err := loops.Interpret(plain, inputs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fused := loops.FuseGreedy(plain)
		got, err := loops.Interpret(fused, inputs)
		if err != nil {
			t.Fatalf("seed %d (fused): %v\n%s", seed, err, fused)
		}
		if d := tensor.MaxAbsDiff(got["Out"], want["Out"]); d > 1e-9 {
			t.Fatalf("seed %d: fusion changed results by %g\nplain:\n%s\nfused:\n%s", seed, d, plain, fused)
		}
	}
}

// TestPipelinePropertyOnRandomPrograms is the repo-wide property test: for
// random programs (fused/unfused, single- and multi-term outputs),
// out-of-core synthesis + execution reproduces the reference interpreter
// exactly.
func TestPipelinePropertyOnRandomPrograms(t *testing.T) {
	count := int64(30)
	if testing.Short() {
		count = 8
	}
	for seed := int64(0); seed < count; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := Generate(rng, Options{Fuse: seed%2 == 0, MultiTerm: seed%3 == 0})
		inputs := InputTensors(prog, rand.New(rand.NewSource(seed+2000)))
		want, err := loops.Interpret(prog, inputs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s, err := core.SynthesizeOpts(context.Background(), prog,
			core.WithMachine(machine.Small(1<<10)), core.WithSeed(seed), core.WithMaxEvals(15000))
		if err != nil {
			t.Fatalf("seed %d: synthesize: %v\n%s", seed, err, prog)
		}
		got, _, err := s.RunSim(inputs)
		if err != nil {
			t.Fatalf("seed %d: run: %v\nplan:\n%s", seed, err, s.Plan)
		}
		if d := tensor.MaxAbsDiff(got["Out"], want["Out"]); d > 1e-9 {
			t.Fatalf("seed %d: synthesized code differs by %g\nprogram:\n%s\nplan:\n%s",
				seed, d, prog, s.Plan)
		}
	}
}
