package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestSynthesizeOptsObservability checks the observability options:
// WithLog streams the solver's events, WithMetrics collects solver
// counters during synthesis and disk counters during the execution
// helpers.
func TestSynthesizeOptsObservability(t *testing.T) {
	prog := loops.TwoIndexFused(40, 60)
	cfg := machine.Small(256 << 10)

	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	ring := obs.NewRing(1 << 12)
	s, err := SynthesizeOpts(context.Background(), prog,
		WithMachine(cfg), WithSeed(7), WithMaxEvals(4000),
		WithLog(obs.NewLog(obs.LevelInfo, ring)),
		WithMetrics(reg), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}

	// The log received the solver's stream, ending in a final event
	// whose objective is the synthesized plan's prediction.
	var final obs.Event
	for _, e := range ring.Events() {
		if e.System == "dcs" && strings.HasPrefix(e.Name, "solve.") {
			final = e
		}
	}
	if final.Name != "solve.final" {
		t.Fatalf("last solver event = %q, want solve.final", final.Name)
	}
	if final.Fields["best"] != s.Predicted() {
		t.Fatalf("final best %v != predicted %g", final.Fields["best"], s.Predicted())
	}
	if final.Fields["evals"] != int(s.SolverEvals) {
		t.Fatalf("final event evals %v != SolverEvals %d", final.Fields["evals"], s.SolverEvals)
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
