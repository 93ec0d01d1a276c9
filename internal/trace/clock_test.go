package trace

import (
	"testing"
	"time"

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

// TestRecorderOpsAreFresh checks that Ops hands out values of its own:
// editing a returned op's section leaves the log as it was.
func TestRecorderOpsAreFresh(t *testing.T) {
	d := machine.Small(1 << 20).Disk
	rec := NewWithDisk(disk.NewSim(d, false), d)
	a, err := rec.Create("A", []int64{16, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ReadSection([]int64{2, 0}, []int64{8, 4}, nil); err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	ops[0].Lo[0], ops[0].Shape[0] = 99, 99
	ops[0].Lo = append(ops[0].Lo, 7)
	if got := rec.Ops()[0]; got.Lo[0] != 2 || got.Shape[0] != 8 || len(got.Lo) != 2 {
		t.Fatalf("editing Ops() changed the log: lo %v shape %v", got.Lo, got.Shape)
	}
}

// resettingArray calls the recorder's Reset from inside a read, as a
// concurrent ResetStats landing mid-operation would.
type resettingArray struct {
	disk.Array
	rec *Recorder
}

func (a resettingArray) ReadSection(lo, shape []int64, buf []float64) error {
	// The Reset's clock reading must come after the read was issued.
	time.Sleep(time.Millisecond)
	a.rec.Reset()
	return a.Array.ReadSection(lo, shape, buf)
}

// TestRecorderResetDuringOp checks that an operation a Reset overtakes
// never lands in the fresh log with clocks from two epochs: every
// recorded op has Completed ≥ Issued, and the log restarts at Seq 0.
func TestRecorderResetDuringOp(t *testing.T) {
	d := machine.Small(1 << 20).Disk
	rec := NewWithDisk(disk.NewSim(d, false), d)
	inner, err := rec.Create("A", []int64{16})
	if err != nil {
		t.Fatal(err)
	}
	ta := inner.(*tracedArray)
	ta.inner = resettingArray{Array: ta.inner, rec: rec}
	// Let the old epoch age, so clocks mixed across the Reset would show.
	time.Sleep(2 * time.Millisecond)
	for range 3 {
		if err := ta.ReadSection([]int64{0}, []int64{8}, nil); err != nil {
			t.Fatal(err)
		}
		if err := ta.WriteSection([]int64{8}, []int64{8}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ops := rec.Ops()
	if len(ops) != 1 || ops[0].Seq != 0 || ops[0].Read || ops[0].Start != 0 {
		t.Fatalf("after the last Reset the log holds %+v, want the one write", ops)
	}
	for _, op := range ops {
		if op.Completed < op.Issued {
			t.Fatalf("op %d completed at %g, before it was issued at %g", op.Seq, op.Completed, op.Issued)
		}
	}
}
