package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/leaktest"
)

// decodeSamples parses the sampler's JSONL output.
func decodeSamples(t *testing.T, buf *bytes.Buffer) []Sample {
	t.Helper()
	dec := json.NewDecoder(buf)
	var out []Sample
	for dec.More() {
		var s Sample
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("decode sample: %v", err)
		}
		out = append(out, s)
	}
	return out
}

func TestSamplerDeltas(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	s := NewSampler(r, &buf, time.Hour) // ticks never fire; rows come from sample()
	var ms int64
	s.now = func() time.Time { ms += 250; return time.UnixMilli(ms) }

	r.Counter("a").Add(5)
	r.Counter("b").Add(1)
	r.Gauge("g").Set(2.5)
	r.Gauge("bad").Set(math.NaN())
	s.sample()
	r.Counter("a").Add(3)
	s.sample()

	rows := decodeSamples(t, &buf)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	r0, r1 := rows[0], rows[1]
	if r0.Seq != 0 || r0.DeltaMs != 0 {
		t.Fatalf("row 0 = %+v", r0)
	}
	// First row: everything moved from zero.
	if r0.Counters["a"] != 5 || r0.Deltas["a"] != 5 || r0.Deltas["b"] != 1 {
		t.Fatalf("row 0 counters/deltas = %v/%v", r0.Counters, r0.Deltas)
	}
	if r0.Gauges["g"] != 2.5 {
		t.Fatalf("row 0 gauges = %v", r0.Gauges)
	}
	if _, ok := r0.Gauges["bad"]; ok {
		t.Fatal("non-finite gauge leaked into a sample row")
	}
	// Second row: only a moved; b is absolute but not a delta.
	if r1.Seq != 1 || r1.DeltaMs != 250 {
		t.Fatalf("row 1 = %+v", r1)
	}
	if r1.Counters["a"] != 8 || r1.Deltas["a"] != 3 {
		t.Fatalf("row 1 counters/deltas = %v/%v", r1.Counters, r1.Deltas)
	}
	if _, ok := r1.Deltas["b"]; ok {
		t.Fatalf("unchanged counter b reported as a delta: %v", r1.Deltas)
	}
}

// TestSamplerStartStop stops a running sampler both ways, by Stop and by
// cancelling its context: either ends the sampling goroutine after one
// final row.
func TestSamplerStartStop(t *testing.T) {
	for _, byCancel := range []bool{false, true} {
		r := NewRegistry()
		r.Counter("a").Inc()
		var buf bytes.Buffer
		s := NewSampler(r, &buf, 10*time.Millisecond)
		ctx, cancel := context.WithCancel(context.Background())
		noLeak := leaktest.Check(t)
		s.Start(ctx)
		time.Sleep(35 * time.Millisecond)
		if byCancel {
			cancel()
			noLeak()
		}
		if err := s.Stop(); err != nil {
			t.Fatalf("Stop: %v", err)
		}
		if err := s.Stop(); err != nil { // idempotent
			t.Fatalf("second Stop: %v", err)
		}
		noLeak()
		cancel()
		rows := decodeSamples(t, &buf)
		// At least one ticker row plus the final row.
		if len(rows) < 2 {
			t.Fatalf("cancel %v: got %d rows, want >= 2", byCancel, len(rows))
		}
		for i, row := range rows {
			if row.Seq != int64(i) {
				t.Fatalf("cancel %v: row %d has seq %d", byCancel, i, row.Seq)
			}
		}
	}
}

func TestSamplerStopWithoutStart(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(7)
	var buf bytes.Buffer
	s := NewSampler(r, &buf, time.Second)
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	rows := decodeSamples(t, &buf)
	if len(rows) != 1 || rows[0].Counters["a"] != 7 {
		t.Fatalf("rows = %+v, want one end-of-run row", rows)
	}
}
