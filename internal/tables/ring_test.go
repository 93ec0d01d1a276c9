package tables

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRingStudyShapeHolds(t *testing.T) {
	rep, err := RingStudy(Size{140, 120}, []int{8, 16, 32, 64}, capped())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for i, r := range rep.Rows {
		if r.Replica1Seconds <= 0 || r.Replica2Seconds <= 0 || r.Replica3Seconds <= 0 {
			t.Fatalf("non-positive times: %+v", r)
		}
		// (b) replication costs I/O time (writes fan out) but bounded by
		// the full fan-out factor — reads still serve from one replica.
		if r.Replica2Seconds < r.Replica1Seconds || r.Replica3Seconds < r.Replica2Seconds {
			t.Fatalf("P=%d: replication should not speed up I/O: %+v", r.Procs, r)
		}
		if r.ReplicaOverhead(2) > 2.05 || r.ReplicaOverhead(3) > 3.05 {
			t.Fatalf("P=%d: replication overhead exceeds fan-out bound: %+v", r.Procs, r)
		}
		// (c) membership changes moved data and charged modelled time.
		if r.Add == nil || r.Drain == nil {
			t.Fatalf("P=%d: missing rebalance reports", r.Procs)
		}
		if r.Add.BlocksMoved == 0 || r.Add.Seconds <= 0 {
			t.Fatalf("P=%d: add moved nothing: %+v", r.Procs, r.Add)
		}
		if r.Drain.BlocksMoved == 0 || r.Drain.Seconds <= 0 {
			t.Fatalf("P=%d: drain moved nothing: %+v", r.Procs, r.Drain)
		}
		if r.Add.Shards != r.Procs+1 || r.Drain.Shards != r.Procs {
			t.Fatalf("P=%d: live counts after add/drain: %d/%d", r.Procs, r.Add.Shards, r.Drain.Shards)
		}
		// (d) the GA/DRA block distribution never loses to the hash: each
		// section costs a shard at most one sub-operation.
		if r.BlockR1Seconds <= 0 || r.BlockR1Seconds > r.Replica1Seconds {
			t.Fatalf("P=%d: Blocked R=1 %g vs hash R=1 %g", r.Procs, r.BlockR1Seconds, r.Replica1Seconds)
		}
		if i > 0 && r.BlockR1Seconds >= rep.Rows[i-1].BlockR1Seconds {
			t.Fatalf("P=%d: Blocked R=1 time did not fall with P: %+v", r.Procs, rep.Rows)
		}
		// (a) Table 4's mechanism at scale: while aggregate memory is the
		// binding constraint, doubling the shard count improves modelled
		// I/O time superlinearly (less volume × more disks). Past the
		// point where the problem fits in aggregate memory (here by
		// P=64 at 137 GB) only the bandwidth factor remains and the
		// curve flattens toward seek-dominated compulsory I/O — so the
		// tail doublings must still improve, just not superlinearly.
		if i > 0 {
			prev := rep.Rows[i-1]
			speedup := prev.Replica1Seconds / r.Replica1Seconds
			if speedup <= 1 {
				t.Fatalf("P=%d→%d did not improve I/O time: %+v", prev.Procs, r.Procs, rep.Rows)
			}
			if i <= 2 && speedup < 1.8 {
				t.Fatalf("P=%d→%d speedup %.2f too weak in the memory-bound region: %+v",
					prev.Procs, r.Procs, speedup, rep.Rows)
			}
		}
	}

	out := FormatRingStudy(rep)
	for _, want := range []string{"Ring study", "Shards", "R2/R1", "drain move", "Blocked R=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}

	// The report round-trips through its JSON artifact form.
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back RingStudyReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(rep.Rows) || back.Rows[0].Replica2Seconds != rep.Rows[0].Replica2Seconds ||
		back.Rows[0].BlockR1Seconds != rep.Rows[0].BlockR1Seconds {
		t.Fatalf("JSON round trip lost data: %+v", back.Rows)
	}
}
