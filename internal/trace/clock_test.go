package trace

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestIssuedCompletedClocks checks the satellite semantics of Op: both
// wall clocks populated and ordered, and the span adapter mirroring the
// op log on the obs disk track.
func TestIssuedCompletedClocks(t *testing.T) {
	d := machine.Small(1 << 20).Disk
	rec := NewWithDisk(disk.NewSim(d, true), d)
	a, err := rec.Create("A", []int64{16})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 16)
	if err := a.WriteSection([]int64{0}, []int64{16}, buf); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadSection([]int64{0}, []int64{8}, buf[:8]); err != nil {
		t.Fatal(err)
	}

	ops := rec.Ops()
	if len(ops) != 2 {
		t.Fatalf("recorded %d ops, want 2", len(ops))
	}
	for i, op := range ops {
		if op.Seq != int64(i) {
			t.Fatalf("op %d has seq %d", i, op.Seq)
		}
		if op.Issued < 0 || op.Completed < op.Issued {
			t.Fatalf("op %d clocks issued=%g completed=%g", i, op.Issued, op.Completed)
		}
		if op.Duration <= 0 {
			t.Fatalf("op %d has no modelled duration", i)
		}
	}
	if ops[1].Issued < ops[0].Completed {
		t.Fatalf("serial ops overlap: %g < %g", ops[1].Issued, ops[0].Completed)
	}

	// The span view mirrors the op log on the disk track.
	spans := rec.Tracer().Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	for i, s := range spans {
		if s.Track != obs.TrackDisk {
			t.Fatalf("span %d on track %q", i, s.Track)
		}
		op, ok := s.Args[opArgKey].(Op)
		if !ok || op.Seq != ops[i].Seq {
			t.Fatalf("span %d does not carry op %d", i, i)
		}
		if s.Dur != ops[i].Duration || s.Start != ops[i].Start {
			t.Fatalf("span %d timing %g+%g != op %g+%g", i, s.Start, s.Dur, ops[i].Start, ops[i].Duration)
		}
	}
	total := 0.0
	for _, op := range ops {
		total += op.Duration
	}
	if got := rec.Tracer().TrackSeconds(obs.TrackDisk); got != total {
		t.Fatalf("disk track seconds %g != op durations %g", got, total)
	}

	// Reset clears both views and restarts the clocks.
	rec.Reset()
	if len(rec.Ops()) != 0 || len(rec.Tracer().Spans()) != 0 {
		t.Fatal("reset left ops behind")
	}
	if err := a.WriteSection([]int64{0}, []int64{4}, buf[:4]); err != nil {
		t.Fatal(err)
	}
	if ops := rec.Ops(); len(ops) != 1 || ops[0].Seq != 0 || ops[0].Start != 0 {
		t.Fatalf("post-reset op = %+v", ops)
	}
}
