// Package trace provides I/O observability for out-of-core executions: a
// recording wrapper around any disk backend that logs every section
// read/write with its modelled timing, plus per-array aggregation — the
// tooling used to understand where a synthesized
// program's I/O time goes and to cross-check the cost model's per-array
// predictions.
//
// The recorder logs each operation as a pointer-free record in an
// obs.Chunks store, as obs.Tracer logs spans. Ops builds the typed log on
// read for the aggregation helpers in this package; Recorder.Tracer
// renders it as one span per operation on the obs "disk" track, so a
// recorded run exports as a Chrome Trace.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Op is one recorded I/O operation.
type Op struct {
	// Seq is the operation's recording sequence number (0-based).
	Seq int64
	// Array is the disk array touched.
	Array string
	// Read distinguishes reads from writes.
	Read bool
	// Lo and Shape give the section.
	Lo, Shape []int64
	// Bytes moved.
	Bytes int64
	// Start and Duration are modelled seconds on the recorder's disk
	// model, accumulated in recording (completion) order: under the serial
	// engine Start is the serial I/O clock; under the pipelined engine it
	// is a completion-ordered serial clock that preserves per-op durations
	// and totals but does not express overlap — use Issued/Completed for
	// real ordering, or the engine's own tracer for the overlapped
	// timeline.
	Start, Duration float64
	// Issued and Completed are wall-clock seconds since the recorder's
	// creation (or last Reset) at which the operation was issued and at
	// which it finished. They are meaningful under both engines: an
	// overlapped run shows Issued order differing from Completed order.
	Issued, Completed float64
}

// Recorder wraps a disk backend and records every section operation.
//
// An operation's bytes come from its section shape and its duration from
// the recorder's disk model (seek + transfer, what the simulator charges),
// never from the inner backend's Stats: with concurrent callers a Stats
// diff around one call would take in its neighbours' traffic.
// Array names are interned once per Create/Open and every section goes
// into one shared int64 arena, so logging an operation takes the mutex
// once and allocates nothing beyond an occasional chunk.
type Recorder struct {
	inner disk.Backend
	model machine.Disk

	mu    sync.Mutex
	names obs.Strings
	ops   obs.Chunks[opRec] // the log, in recording (Seq) order
	ints  obs.Chunks[int64] // every op's Lo, then its Shape
	clock float64
	epoch time.Time
}

// opRec is one logged operation: an Op with its array interned and its
// Lo and Shape the two halves of ints[at:end].
type opRec struct {
	array                         obs.Key
	read                          bool
	at, end                       int
	bytes                         int64
	start, dur, issued, completed float64
}

// NewWithDisk wraps a backend, charging each recorded operation the disk
// model's per-section time.
func NewWithDisk(inner disk.Backend, d machine.Disk) *Recorder {
	return &Recorder{inner: inner, model: d, epoch: time.Now()}
}

// opArgKey carries the Op inside its span's Args.
const opArgKey = "op"

// Ops returns the recorded operations in recording order, built afresh.
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	ints := make([]int64, r.ints.Len())
	for i := range ints {
		ints[i] = r.ints.At(i)
	}
	ops := make([]Op, r.ops.Len())
	for i := range ops {
		o := r.ops.At(i)
		mid := (o.at + o.end) / 2
		ops[i] = Op{Seq: int64(i), Array: r.names.String(o.array), Read: o.read,
			Lo: ints[o.at:mid:mid], Shape: ints[mid:o.end:o.end],
			Bytes: o.bytes, Start: o.start, Duration: o.dur, Issued: o.issued, Completed: o.completed}
	}
	return ops
}

// Tracer renders the op log as a fresh span log, one "disk"-track span
// per operation with the Op in its Args, for Chrome Trace export. The
// spans sit on the recording-order serial clock (see Op.Start); an
// overlapped timeline comes from the execution engine's own tracer,
// which never sees these spans, so attaching both to a run never
// double-counts disk time.
func (r *Recorder) Tracer() *obs.Tracer {
	tr := obs.NewTracer()
	for _, op := range r.Ops() {
		name := "W " + op.Array
		if op.Read {
			name = "R " + op.Array
		}
		tr.Span(obs.Span{Track: obs.TrackDisk, Name: name, Start: op.Start, Dur: op.Duration,
			Args: map[string]any{opArgKey: op}})
	}
	return tr
}

// Reset clears the recording and restarts the wall clock. An operation
// in flight across a Reset is not recorded.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.ops.Reset()
	r.ints.Reset()
	r.clock = 0
	r.epoch = time.Now()
	r.mu.Unlock()
}

// Create implements disk.Backend.
func (r *Recorder) Create(name string, dims []int64) (disk.Array, error) {
	a, err := r.inner.Create(name, dims)
	if err != nil {
		return nil, err
	}
	return r.wrap(a), nil
}

// Open implements disk.Backend.
func (r *Recorder) Open(name string) (disk.Array, error) {
	a, err := r.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return r.wrap(a), nil
}

// Stats implements disk.Backend.
func (r *Recorder) Stats() disk.Stats { return r.inner.Stats() }

// SetMetrics implements disk.MetricsSetter by forwarding to the inner
// backend when it publishes metrics (a no-op otherwise), so
// disk.AttachMetrics works through a recorder-wrapped backend.
func (r *Recorder) SetMetrics(reg *obs.Registry) {
	if ms, ok := r.inner.(disk.MetricsSetter); ok {
		ms.SetMetrics(reg)
	}
}

// ResetStats implements disk.Backend; it also clears the recording so the
// trace covers exactly what the statistics cover.
func (r *Recorder) ResetStats() {
	r.inner.ResetStats()
	r.Reset()
}

// Close implements disk.Backend.
func (r *Recorder) Close() error { return r.inner.Close() }

// Inner implements disk.InnerBackend, so integrity probes (disk.Scrub,
// disk.SyncBackend, exec's heal path) reach the real store through a
// traced chain.
func (r *Recorder) Inner() disk.Backend { return r.inner }

type tracedArray struct {
	rec   *Recorder
	inner disk.Array
	name  obs.Key
}

func (r *Recorder) wrap(a disk.Array) *tracedArray {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &tracedArray{rec: r, inner: a, name: r.names.Key(a.Name())}
}

func (a *tracedArray) Name() string  { return a.inner.Name() }
func (a *tracedArray) Dims() []int64 { return a.inner.Dims() }

func (a *tracedArray) ReadSection(lo, shape []int64, buf []float64) error {
	return a.record(lo, shape, buf, true)
}

func (a *tracedArray) WriteSection(lo, shape []int64, buf []float64) error {
	return a.record(lo, shape, buf, false)
}

// record performs one section operation and logs it if it succeeds and
// no Reset came after it was issued.
func (a *tracedArray) record(lo, shape []int64, buf []float64, read bool) error {
	r := a.rec
	issued := time.Now()
	var err error
	if read {
		err = a.inner.ReadSection(lo, shape, buf)
	} else {
		err = a.inner.WriteSection(lo, shape, buf)
	}
	if err != nil {
		return err
	}
	bytes := int64(8)
	for _, s := range shape {
		bytes *= s
	}
	dur := r.model.WriteTime(bytes, 1)
	if read {
		dur = r.model.ReadTime(bytes, 1)
	}
	completed := time.Now()

	r.mu.Lock()
	defer r.mu.Unlock()
	if issued.Before(r.epoch) {
		return nil
	}
	at := r.ints.Len()
	for _, x := range lo {
		r.ints.Append(x)
	}
	for _, x := range shape {
		r.ints.Append(x)
	}
	r.ops.Append(opRec{array: a.name, read: read, at: at, end: r.ints.Len(), bytes: bytes,
		start: r.clock, dur: dur, issued: issued.Sub(r.epoch).Seconds(), completed: completed.Sub(r.epoch).Seconds()})
	r.clock += dur
	return nil
}

// ArraySummary aggregates a trace per array.
type ArraySummary struct {
	Array      string
	ReadOps    int64
	WriteOps   int64
	BytesRead  int64
	BytesWrite int64
	Seconds    float64
}

// Summarize aggregates the trace per array, sorted by descending time.
func Summarize(ops []Op) []ArraySummary {
	byName := map[string]*ArraySummary{}
	for _, op := range ops {
		s := byName[op.Array]
		if s == nil {
			s = &ArraySummary{Array: op.Array}
			byName[op.Array] = s
		}
		if op.Read {
			s.ReadOps++
			s.BytesRead += op.Bytes
		} else {
			s.WriteOps++
			s.BytesWrite += op.Bytes
		}
		s.Seconds += op.Duration
	}
	out := make([]ArraySummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Array < out[j].Array
	})
	return out
}

// FormatSummary renders per-array totals as a table.
func FormatSummary(sums []ArraySummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %9s %9s %14s %14s %10s\n",
		"array", "reads", "writes", "bytes read", "bytes written", "secs")
	var total ArraySummary
	for _, s := range sums {
		fmt.Fprintf(&b, "%-10s %9d %9d %14d %14d %10.2f\n",
			s.Array, s.ReadOps, s.WriteOps, s.BytesRead, s.BytesWrite, s.Seconds)
		total.ReadOps += s.ReadOps
		total.WriteOps += s.WriteOps
		total.BytesRead += s.BytesRead
		total.BytesWrite += s.BytesWrite
		total.Seconds += s.Seconds
	}
	fmt.Fprintf(&b, "%-10s %9d %9d %14d %14d %10.2f\n",
		"TOTAL", total.ReadOps, total.WriteOps, total.BytesRead, total.BytesWrite, total.Seconds)
	return b.String()
}

// Runs returns the number of physically contiguous runs a section
// occupies in a row-major array of the given dims: trailing dimensions
// covered in full merge into longer runs.
func Runs(dims, shape []int64) int64 {
	runs := int64(1)
	i := len(dims) - 1
	for ; i > 0; i-- {
		if shape[i] != dims[i] {
			break
		}
	}
	for j := 0; j < i; j++ {
		runs *= shape[j]
	}
	return runs
}
