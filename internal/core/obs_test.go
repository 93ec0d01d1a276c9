package core

import (
	"context"
	"testing"

	"repro/internal/dcs"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestSynthesizeOptsObservability checks the observability options:
// WithObserver streams the solver's events, WithMetrics collects solver
// counters during synthesis and disk counters during the execution
// helpers.
func TestSynthesizeOptsObservability(t *testing.T) {
	prog := loops.TwoIndexFused(40, 60)
	cfg := machine.Small(256 << 10)

	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	var seen []dcs.Event
	s, err := SynthesizeOpts(context.Background(), prog,
		WithMachine(cfg), WithSeed(7), WithMaxEvals(4000),
		WithObserver(func(e dcs.Event) { seen = append(seen, e) }),
		WithMetrics(reg), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}

	// The observer received the full stream, ending in a final event
	// whose objective is the synthesized plan's prediction.
	if len(seen) == 0 {
		t.Fatal("no solver event recorded")
	}
	final := seen[len(seen)-1]
	if final.Kind != "final" {
		t.Fatalf("last event kind = %q, want final", final.Kind)
	}
	if final.Best != s.Predicted() {
		t.Fatalf("final best %g != predicted %g", final.Best, s.Predicted())
	}
	if final.Evals != int(s.SolverEvals) {
		t.Fatalf("final event evals %d != SolverEvals %d", final.Evals, s.SolverEvals)
	}
	if got := reg.Counter("dcs.evals").Value(); got != s.SolverEvals {
		t.Fatalf("dcs.evals counter %d != SolverEvals %d", got, s.SolverEvals)
	}

	// The execution helpers attach the registry and tracer: a dry-run
	// measurement publishes disk counters matching its Stats and a disk
	// track matching the modelled time.
	res, err := s.MeasureSimFull()
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["disk.read.ops"]; got != res.Stats.ReadOps {
		t.Fatalf("disk.read.ops %d != Stats.ReadOps %d", got, res.Stats.ReadOps)
	}
	if got := snap.Counters["disk.write.bytes"]; got != res.Stats.BytesWritten {
		t.Fatalf("disk.write.bytes %d != Stats.BytesWritten %d", got, res.Stats.BytesWritten)
	}
	if tr.TrackSeconds(obs.TrackDisk) <= 0 {
		t.Fatal("measurement left no disk-track spans")
	}
}
