package tables

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/machine"
)

// TestNaivePagingFarWorseThanSynthesis pins the demand-paging strawman
// at both paper sizes (deterministic: the model objective at unit tiles)
// and checks it sits orders of magnitude above the synthesized code.
func TestNaivePagingFarWorseThanSynthesis(t *testing.T) {
	cfg := machine.OSCItanium2()
	pins := []struct {
		size Size
		want float64
	}{
		{Size{140, 120}, 46787.138688},
		{Size{190, 180}, 259149.785472},
	}
	for _, pin := range pins {
		naive, err := NaivePagingCost(loops.FourIndexAbstract(pin.size.N, pin.size.V), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(naive-pin.want) > 1e-12*pin.want {
			t.Fatalf("%v: naive paging %.6f s, want %.6f s", pin.size, naive, pin.want)
		}
	}
	s, err := core.SynthesizeOpts(context.Background(), loops.FourIndexAbstract(140, 120),
		core.WithMachine(cfg), core.WithSeed(1), core.WithMaxEvals(60000))
	if err != nil {
		t.Fatal(err)
	}
	if naive := pins[0].want; naive < s.Predicted()*50 {
		t.Fatalf("naive paging %.0f s should be orders of magnitude above synthesized %.0f s",
			naive, s.Predicted())
	}
}

func TestBalanceClassification(t *testing.T) {
	s, err := core.SynthesizeOpts(context.Background(), loops.FourIndexAbstract(140, 120),
		core.WithSeed(1), core.WithMaxEvals(60000))
	if err != nil {
		t.Fatal(err)
	}
	b := s.Balance()
	if b.IOSeconds != s.Predicted() {
		t.Fatal("balance I/O mismatch")
	}
	if b.ComputeSeconds <= 0 {
		t.Fatal("compute time missing (flop rate set in OSCItanium2)")
	}
	if b.Serial != b.IOSeconds+b.ComputeSeconds {
		t.Fatal("serial sum wrong")
	}
	want := b.IOSeconds
	if b.ComputeSeconds > want {
		want = b.ComputeSeconds
	}
	if b.Overlapped != want {
		t.Fatal("overlap bound wrong")
	}
	if b.String() == "" {
		t.Fatal("empty balance string")
	}
	// The four-index transform at paper scale under this disk is I/O
	// bound: ~10 GB of traffic vs ~0.1 Tflop of compute.
	if !b.IOBound {
		t.Fatalf("expected I/O-bound: %s", b)
	}
}

// TestBalanceTwoIndexComputeBound: the two-index transform at Fig. 4's
// scale (two GEMMs, O(N³) flops over O(N²) data) sits on the other side
// of the balance from the four-index transform.
func TestBalanceTwoIndexComputeBound(t *testing.T) {
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = machine.GB
	s, err := core.SynthesizeOpts(context.Background(), loops.TwoIndexFused(35000, 40000),
		core.WithMachine(cfg), core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if b := s.Balance(); b.IOBound {
		t.Fatalf("expected compute-bound: %s", b)
	}
}

func TestFlopsExact(t *testing.T) {
	// Two-index fused program: statement 1 iterates i·n·j with 2 factors
	// (4 flops/iter), statement 2 iterates i·n·m with 2 factors.
	p := loops.TwoIndexFused(4, 5) // m,n = 4; i,j = 5
	got := core.Flops(p)
	want := float64(5*4*5*4 + 5*4*4*4)
	if got != want {
		t.Fatalf("Flops = %g, want %g", got, want)
	}
}
