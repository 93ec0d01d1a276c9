// Package trace provides I/O observability for out-of-core executions: a
// recording wrapper around any disk backend that logs every section
// read/write with its modelled timing, plus per-array aggregation and a
// text timeline — the tooling used to understand where a synthesized
// program's I/O time goes and to cross-check the cost model's per-array
// predictions.
//
// The recorder keeps its log as typed Ops for the aggregation helpers in
// this package; Recorder.Tracer renders it as one span per operation on
// the obs "disk" track, so a recorded run exports as a Chrome Trace.
package trace

import (
	"fmt"
	"slices"
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
	// Start and Duration are modelled seconds on this backend's disk,
	// accumulated in recording order. Synchronous operations are recorded
	// as they execute, so under the serial engine Start is the serial
	// I/O clock. Asynchronous operations (the pipelined engine) are
	// recorded when their completion is awaited: Start is then a
	// completion-ordered serial clock that preserves per-op durations and
	// totals but does not express overlap — use Issued/Completed for
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
// The recorder passes the asynchronous contract through: its arrays
// implement disk.AsyncArray over whatever the inner backend offers
// (natively or via disk.AsAsync), so the pipelined execution engine runs
// traced without losing overlap. Asynchronous operations are recorded at
// completion time with bytes derived from the section shape and duration
// from the recorder's disk model (NewWithDisk) — the synchronous path's
// stats-delta attribution would misattribute bytes across concurrently
// completing operations.
type Recorder struct {
	inner disk.Backend

	model    machine.Disk
	hasModel bool

	mu    sync.Mutex
	ops   []Op // the log, in recording (Seq) order
	clock float64
	epoch time.Time
}

// New wraps a backend. Asynchronous operations traced through a Recorder
// built this way carry zero Duration (the recorder has no disk model to
// charge); use NewWithDisk when tracing pipelined executions.
func New(inner disk.Backend) *Recorder {
	return &Recorder{inner: inner, epoch: time.Now()}
}

// NewWithDisk wraps a backend and charges asynchronous operations the
// given disk model's per-section time (seek + transfer), matching the
// simulator's synchronous accounting.
func NewWithDisk(inner disk.Backend, d machine.Disk) *Recorder {
	return &Recorder{inner: inner, model: d, hasModel: true, epoch: time.Now()}
}

// opArgKey carries the Op inside its span's Args.
const opArgKey = "op"

// addLocked appends one op to the log, numbering it and advancing the
// serial clock by its duration. Callers hold r.mu.
func (r *Recorder) addLocked(op Op) {
	op.Seq = int64(len(r.ops))
	op.Start = r.clock
	r.clock += op.Duration
	r.ops = append(r.ops, op)
}

// Ops returns a copy of the recorded operations in recording order.
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.ops)
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

// Reset clears the recording and restarts the wall clock.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.ops = nil
	r.clock = 0
	r.epoch = time.Now()
	r.mu.Unlock()
}

// wall returns wall-clock seconds since the recorder's epoch.
func (r *Recorder) wall() float64 {
	r.mu.Lock()
	e := r.epoch
	r.mu.Unlock()
	return time.Since(e).Seconds()
}

// Create implements disk.Backend.
func (r *Recorder) Create(name string, dims []int64) (disk.Array, error) {
	a, err := r.inner.Create(name, dims)
	if err != nil {
		return nil, err
	}
	return &tracedArray{rec: r, inner: a}, nil
}

// Open implements disk.Backend.
func (r *Recorder) Open(name string) (disk.Array, error) {
	a, err := r.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &tracedArray{rec: r, inner: a}, nil
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

// AsyncCapable implements disk.AsyncBackend: traced arrays always carry
// the asynchronous contract (adapting the inner array when it lacks one).
func (r *Recorder) AsyncCapable() bool { return true }

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
}

func (a *tracedArray) Name() string  { return a.inner.Name() }
func (a *tracedArray) Dims() []int64 { return a.inner.Dims() }

func (a *tracedArray) ReadSection(lo, shape []int64, buf []float64) error {
	return a.record(lo, shape, buf, true)
}

func (a *tracedArray) WriteSection(lo, shape []int64, buf []float64) error {
	return a.record(lo, shape, buf, false)
}

// ReadAsync implements disk.AsyncArray: the inner operation (native or
// adapted) proceeds concurrently; the op is recorded when awaited, with
// its issue time captured here.
func (a *tracedArray) ReadAsync(lo, shape []int64, buf []float64) disk.Completion {
	issued := a.rec.wall()
	return &tracedCompletion{
		inner: disk.AsAsync(a.inner).ReadAsync(lo, shape, buf),
		rec:   func() { a.rec.addAsync(a.inner.Name(), lo, shape, true, issued) },
	}
}

// WriteAsync implements disk.AsyncArray.
func (a *tracedArray) WriteAsync(lo, shape []int64, buf []float64) disk.Completion {
	issued := a.rec.wall()
	return &tracedCompletion{
		inner: disk.AsAsync(a.inner).WriteAsync(lo, shape, buf),
		rec:   func() { a.rec.addAsync(a.inner.Name(), lo, shape, false, issued) },
	}
}

// tracedCompletion records the operation once it succeeds.
type tracedCompletion struct {
	inner disk.Completion
	rec   func()
}

func (c *tracedCompletion) Await() error {
	err := c.inner.Await()
	if err == nil {
		c.rec()
	}
	return err
}

// addAsync appends an asynchronous op in completion order. Bytes come
// from the section shape and duration from the disk model: concurrent
// completions make the synchronous path's stats-delta attribution
// unsound.
func (r *Recorder) addAsync(array string, lo, shape []int64, read bool, issued float64) {
	bytes := int64(8)
	for _, s := range shape {
		bytes *= s
	}
	var dur float64
	if r.hasModel {
		if read {
			dur = r.model.ReadTime(bytes, 1)
		} else {
			dur = r.model.WriteTime(bytes, 1)
		}
	}
	completed := r.wall()
	r.mu.Lock()
	r.addLocked(Op{
		Array:     array,
		Read:      read,
		Lo:        append([]int64(nil), lo...),
		Shape:     append([]int64(nil), shape...),
		Bytes:     bytes,
		Duration:  dur,
		Issued:    issued,
		Completed: completed,
	})
	r.mu.Unlock()
}

func (a *tracedArray) record(lo, shape []int64, buf []float64, read bool) error {
	issued := a.rec.wall()
	before := a.rec.inner.Stats()
	var err error
	if read {
		err = a.inner.ReadSection(lo, shape, buf)
	} else {
		err = a.inner.WriteSection(lo, shape, buf)
	}
	if err != nil {
		return err
	}
	after := a.rec.inner.Stats()
	bytes := (after.BytesRead - before.BytesRead) + (after.BytesWritten - before.BytesWritten)
	dur := after.Time() - before.Time()
	completed := a.rec.wall()

	a.rec.mu.Lock()
	a.rec.addLocked(Op{
		Array:     a.inner.Name(),
		Read:      read,
		Lo:        append([]int64(nil), lo...),
		Shape:     append([]int64(nil), shape...),
		Bytes:     bytes,
		Duration:  dur,
		Issued:    issued,
		Completed: completed,
	})
	a.rec.mu.Unlock()
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

// Timeline renders the first n operations (all if n <= 0) as a compact
// event log.
func Timeline(ops []Op, n int) string {
	if n <= 0 || n > len(ops) {
		n = len(ops)
	}
	var b strings.Builder
	for _, op := range ops[:n] {
		dir := "W"
		if op.Read {
			dir = "R"
		}
		fmt.Fprintf(&b, "[%10.3fs] #%-5d %s %-8s lo=%v shape=%v %d B (%.3fs)\n",
			op.Start, op.Seq, dir, op.Array, op.Lo, op.Shape, op.Bytes, op.Duration)
	}
	if n < len(ops) {
		fmt.Fprintf(&b, "... %d more operations\n", len(ops)-n)
	}
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

// RunAwareTime recomputes the modelled I/O time of a trace charging one
// seek per *contiguous run* instead of one per section — the refined disk
// model under which scattered sections (small tiles along an array's
// fastest-varying dimension) pay for their seeks. dims maps array names to
// extents. The spatial-locality tile adjustment of the synthesis lineage
// exists exactly to keep this quantity close to the per-section model.
func RunAwareTime(ops []Op, dims map[string][]int64, d machine.Disk) float64 {
	total := 0.0
	for _, op := range ops {
		ad, ok := dims[op.Array]
		if !ok {
			continue
		}
		runs := Runs(ad, op.Shape)
		if op.Read {
			total += float64(runs)*d.SeekTime + float64(op.Bytes)/d.ReadBandwidth
		} else {
			total += float64(runs)*d.SeekTime + float64(op.Bytes)/d.WriteBandwidth
		}
	}
	return total
}

// Phases splits the trace into contiguous runs touching the same array
// and direction — the coarse I/O phases of the generated code.
type Phase struct {
	Array   string
	Read    bool
	Ops     int64
	Bytes   int64
	Seconds float64
}

// SplitPhases computes the phase sequence of a trace.
func SplitPhases(ops []Op) []Phase {
	var out []Phase
	for _, op := range ops {
		if n := len(out); n > 0 && out[n-1].Array == op.Array && out[n-1].Read == op.Read {
			out[n-1].Ops++
			out[n-1].Bytes += op.Bytes
			out[n-1].Seconds += op.Duration
			continue
		}
		out = append(out, Phase{Array: op.Array, Read: op.Read, Ops: 1, Bytes: op.Bytes, Seconds: op.Duration})
	}
	return out
}
