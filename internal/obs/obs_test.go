package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("disk.read.bytes")
	c.Add(100)
	c.Inc()
	if got := r.Counter("disk.read.bytes").Value(); got != 101 {
		t.Fatalf("counter = %d, want 101", got)
	}

	g := r.Gauge("depth")
	g.Set(3)
	g.Add(-2)
	if g.Value() != 1 || g.Max() != 3 {
		t.Fatalf("gauge value/max = %v/%v, want 1/3", g.Value(), g.Max())
	}
	g.Reset()
	g.Set(-5)
	if g.Max() != -5 {
		t.Fatalf("gauge max after reset+Set(-5) = %v, want -5", g.Max())
	}

	h := r.Histogram("seconds")
	for _, v := range []float64{0.5, 1.5, 2.0} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 4.0 {
		t.Fatalf("histogram count/sum = %d/%v, want 3/4", h.Count(), h.Sum())
	}

	snap := r.Snapshot()
	if snap.Counters["disk.read.bytes"] != 101 {
		t.Fatalf("snapshot counter = %d", snap.Counters["disk.read.bytes"])
	}
	hv := snap.Histograms["seconds"]
	if hv.Min != 0.5 || hv.Max != 2.0 {
		t.Fatalf("histogram min/max = %v/%v", hv.Min, hv.Max)
	}
	if hv.Buckets["1e-01"] != 1 || hv.Buckets["1e+00"] != 2 {
		t.Fatalf("histogram buckets = %v", hv.Buckets)
	}
}

func TestRegistryJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(4)
	var buf1, buf2 bytes.Buffer
	if err := r.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("JSON export is not deterministic")
	}
	var snap Snapshot
	if err := json.Unmarshal(buf1.Bytes(), &snap); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if snap.Counters["a"] != 1 || snap.Counters["b"] != 2 {
		t.Fatalf("round-tripped counters = %v", snap.Counters)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("concurrent gauge = %v, want 8000", got)
	}
}

func TestTracerChromeExport(t *testing.T) {
	tr := NewTracer()
	tr.Span(Span{Track: TrackDisk, Name: "R A", Start: 0, Dur: 1.5, Args: map[string]any{"bytes": 800}})
	tr.Span(Span{Track: TrackCompute, Name: "compute B", Start: 0.5, Dur: 2.0})
	tr.Span(Span{Track: TrackDisk, Name: "W B", Start: 1.5, Dur: 0.5})
	tr.Instant(Instant{Track: TrackDisk, Name: "barrier", TS: 2.0})

	if got := tr.TrackSeconds(TrackDisk); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("disk track seconds = %v, want 2", got)
	}

	raw, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// Track ids: disk=1, compute=2, named via metadata events.
	diskDur := 0.0
	var sawDiskName, sawInstant bool
	for _, e := range parsed.TraceEvents {
		switch e.Phase {
		case "M":
			if e.TID == 1 && e.Args["name"] == "disk" {
				sawDiskName = true
			}
		case "X":
			if e.TID == 1 {
				diskDur += e.Dur
			}
		case "i":
			sawInstant = true
		}
	}
	if !sawDiskName {
		t.Fatal("missing thread_name metadata for the disk track")
	}
	if !sawInstant {
		t.Fatal("missing instant event")
	}
	if math.Abs(diskDur-2.0e6) > 1e-6 {
		t.Fatalf("disk track duration = %v µs, want 2e6", diskDur)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Span(Span{Track: "x", Name: "y"})
	tr.Instant(Instant{Track: "x", Name: "y"})
	if tr.Spans() != nil || tr.TrackSeconds("x") != 0 {
		t.Fatal("nil tracer must report nothing")
	}
	tr.Reset()
}

func TestHistogramUnderflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	h.Observe(0)
	h.Observe(-3)
	h.Observe(math.Inf(1))
	h.Observe(0.5) // decade -1

	hv := r.Snapshot().Histograms["h"]
	// Zero, negative, and non-finite observations land in an explicit
	// "underflow" key — the old "0" key was ambiguous with a decade
	// label and sorted into the middle of the 1e±NN keys.
	if hv.Buckets["underflow"] != 3 {
		t.Fatalf("underflow bucket = %v", hv.Buckets)
	}
	if hv.Buckets["1e-01"] != 1 {
		t.Fatalf("decade bucket = %v", hv.Buckets)
	}
	if _, ok := hv.Buckets["0"]; ok {
		t.Fatalf(`ambiguous "0" bucket key resurfaced: %v`, hv.Buckets)
	}
}

// TestTracerReadsAreFresh checks that Spans and Instants hand out values
// of their own: editing a returned span's or instant's Args, typed or
// verbatim, leaves the recording as it was.
func TestTracerReadsAreFresh(t *testing.T) {
	tr := NewTracer()
	bytes := tr.Key("bytes")
	tr.Record(tr.Key(TrackDisk), tr.Key("R A"), 0, 1, Int(bytes, 800), Bool(tr.Key("shadow"), true))
	verbatim := map[string]any{"bytes": 64}
	tr.Span(Span{Track: TrackDisk, Name: "W A", Start: 1, Dur: 1, Args: verbatim})
	verbatim["bytes"] = 65
	tr.Mark(tr.Key(TrackDisk), tr.Key("barrier"), 2, Float(tr.Key("stall_s"), 0.5))

	spans, instants := tr.Spans(), tr.Instants()
	if len(spans) != 2 || len(instants) != 1 {
		t.Fatalf("%d spans, %d instants, want 2 and 1", len(spans), len(instants))
	}
	if spans[0].Args["bytes"] != int64(800) || spans[0].Args["shadow"] != true || spans[1].Args["bytes"] != 64 {
		t.Fatalf("span args %v, %v", spans[0].Args, spans[1].Args)
	}
	if instants[0].Args["stall_s"] != 0.5 {
		t.Fatalf("instant args %v", instants[0].Args)
	}
	spans[0].Args["bytes"] = int64(1)
	spans[1].Args["bytes"] = 1
	instants[0].Args["stall_s"] = 1.0
	if got := tr.Spans(); got[0].Args["bytes"] != int64(800) || got[1].Args["bytes"] != 64 {
		t.Fatalf("editing Spans() changed the recording: %v, %v", got[0].Args, got[1].Args)
	}
	if got := tr.Instants(); got[0].Args["stall_s"] != 0.5 {
		t.Fatalf("editing Instants() changed the recording: %v", got[0].Args)
	}
}

// TestTracerTypedArgsOverflow checks that more typed arguments than a
// record holds inline are all kept.
func TestTracerTypedArgsOverflow(t *testing.T) {
	tr := NewTracer()
	a, b, c := tr.Key("a"), tr.Key("b"), tr.Key("c")
	tr.Record(tr.Key(TrackCompute), tr.Key("x"), 0, 1, Int(a, 1), Bool(b, false), Float(c, 2.5))
	got := tr.Spans()[0].Args
	if len(got) != 3 || got["a"] != int64(1) || got["b"] != false || got["c"] != 2.5 {
		t.Fatalf("args %v", got)
	}
	if tr.TrackSeconds(TrackCompute) != 1 || tr.TrackSeconds("absent") != 0 {
		t.Fatal("track seconds wrong")
	}
}

// TestNilRegistrySafe pins the metrics half of the nil rule the log and
// the tracer already keep: a nil registry hands out nil instruments, and
// every producer-facing method on a nil instrument or family is a no-op
// that returns nil or zero, so producers need no "is a registry
// attached?" guard of their own.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h")
	cv, gv := r.CounterVec("cv", "k"), r.GaugeVec("gv", "k")
	if c != nil || g != nil || h != nil || cv != nil || gv != nil {
		t.Fatalf("nil registry handed out %v %v %v %v %v, want all nil", c, g, h, cv, gv)
	}
	c.Add(3)
	c.Inc()
	c.Reset()
	g.Set(1)
	if v := g.Add(2); v != 0 {
		t.Fatalf("nil Gauge.Add = %v, want 0", v)
	}
	h.Observe(1)
	if got := cv.With("a"); got != nil {
		t.Fatalf("nil CounterVec.With = %v, want nil", got)
	}
	if got := gv.With("a"); got != nil {
		t.Fatalf("nil GaugeVec.With = %v, want nil", got)
	}
	cv.With("a").Inc()
	gv.With("a").Set(1)
}
