package sampling

import (
	"context"
	"testing"
	"time"

	"repro/internal/leaktest"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tiling"
)

func TestParallelSearchIdenticalToSerial(t *testing.T) {
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 1 * machine.GB
	tree, err := tiling.Tile(loops.TwoIndexFused(35000, 40000))
	if err != nil {
		t.Fatal(err)
	}
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := nlp.Build(m)

	serial, err := Search(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		noLeak := leaktest.Check(t)
		par, err := Search(context.Background(), p, Options{Workers: workers})
		noLeak()
		if err != nil {
			t.Fatal(err)
		}
		if par.Objective != serial.Objective {
			t.Fatalf("workers=%d: objective %g != serial %g", workers, par.Objective, serial.Objective)
		}
		if par.Combos != serial.Combos || par.FeasibleCombos != serial.FeasibleCombos {
			t.Fatalf("workers=%d: combo counts differ: %d/%d vs %d/%d",
				workers, par.Combos, par.FeasibleCombos, serial.Combos, serial.FeasibleCombos)
		}
		for i := range serial.X {
			if par.X[i] != serial.X[i] {
				t.Fatalf("workers=%d: decision vectors differ at %d", workers, i)
			}
		}
	}
}

func TestParallelSearchFourIndexSpeedAndEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second grid search")
	}
	tree, err := tiling.Tile(loops.FourIndexAbstract(140, 120))
	if err != nil {
		t.Fatal(err)
	}
	m, err := placement.Enumerate(tree, machine.OSCItanium2(), placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := nlp.Build(m)
	opts := Options{MaxCombos: 400000}

	t0 := time.Now()
	serial, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	serialDur := time.Since(t0)

	opts.Workers = 4
	t0 = time.Now()
	par, err := Search(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	parDur := time.Since(t0)

	if par.Objective != serial.Objective {
		t.Fatalf("objectives differ: %g vs %g", par.Objective, serial.Objective)
	}
	t.Logf("serial %v, 4 workers %v (%.1fx)", serialDur, parDur, serialDur.Seconds()/parDur.Seconds())
}
