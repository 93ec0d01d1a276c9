package main

import (
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/trace"
)

// timedBackend is the benchmark's view into the disk layer: a
// disk.Backend that forwards every call to the backend it wraps and
// records how long the call took, as a span under the exec.Run span that
// caused it. It measures the layer from outside — nothing under
// internal/ knows it exists — and forwards the optional capabilities
// (asynchronous sections, metrics, sync, the inner-backend chain) so the
// engines take the same path through it as without it.
type timedBackend struct {
	inner  disk.Backend
	tr     *tracer
	parent int // span the backend calls are charged to

	// createNs covers Create and Open.
	readNs, writeNs, createNs, closeNs atomic.Int64
	reads, writes, runs                atomic.Int64
}

func newTimedBackend(inner disk.Backend, tr *tracer) *timedBackend {
	return &timedBackend{inner: inner, tr: tr}
}

// charge records one finished backend call.
func (b *timedBackend) charge(total *atomic.Int64, name string, start int64) {
	end := b.tr.now()
	total.Add(end - start)
	b.tr.add(b.parent, name, start, end)
}

// busyNs is the time spent inside backend calls. Under the serial engine
// the calls never overlap, so exec.Run's wall time minus busyNs is the
// engine's and interpreter's own time.
func (b *timedBackend) busyNs() int64 {
	return b.readNs.Load() + b.writeNs.Load() + b.createNs.Load() + b.closeNs.Load()
}

func (b *timedBackend) Create(name string, dims []int64) (disk.Array, error) {
	start := b.tr.now()
	a, err := b.inner.Create(name, dims)
	b.charge(&b.createNs, "disk.Create", start)
	if err != nil {
		return nil, err
	}
	return &timedArray{be: b, inner: a, dims: a.Dims()}, nil
}

func (b *timedBackend) Open(name string) (disk.Array, error) {
	start := b.tr.now()
	a, err := b.inner.Open(name)
	b.charge(&b.createNs, "disk.Open", start)
	if err != nil {
		return nil, err
	}
	return &timedArray{be: b, inner: a, dims: a.Dims()}, nil
}

func (b *timedBackend) Stats() disk.Stats { return b.inner.Stats() }
func (b *timedBackend) ResetStats()       { b.inner.ResetStats() }

func (b *timedBackend) Close() error {
	start := b.tr.now()
	err := b.inner.Close()
	b.charge(&b.closeNs, "disk.Close", start)
	return err
}

// AsyncCapable implements disk.AsyncBackend with the inner backend's
// answer.
func (b *timedBackend) AsyncCapable() bool {
	ab, ok := b.inner.(disk.AsyncBackend)
	return ok && ab.AsyncCapable()
}

// SetMetrics implements disk.MetricsSetter by forwarding.
func (b *timedBackend) SetMetrics(reg *obs.Registry) { disk.AttachMetrics(b.inner, reg) }

// Sync implements disk.Syncer through the wrapper chain.
func (b *timedBackend) Sync() error { return disk.SyncBackend(b.inner) }

// Inner implements disk.InnerBackend.
func (b *timedBackend) Inner() disk.Backend { return b.inner }

// timedArray times section I/O. It always offers the asynchronous
// contract, delegating to disk.AsAsync of the inner array: natively
// asynchronous arrays keep their own implementation and synchronous ones
// get the goroutine adapter the engine would have given them anyway.
type timedArray struct {
	be    *timedBackend
	inner disk.Array
	dims  []int64
}

func (a *timedArray) Name() string  { return a.inner.Name() }
func (a *timedArray) Dims() []int64 { return a.inner.Dims() }

func (a *timedArray) count(n *atomic.Int64, shape []int64) {
	n.Add(1)
	a.be.runs.Add(trace.Runs(a.dims, shape))
}

func (a *timedArray) ReadSection(lo, shape []int64, buf []float64) error {
	start := a.be.tr.now()
	err := a.inner.ReadSection(lo, shape, buf)
	a.be.charge(&a.be.readNs, "disk.ReadSection", start)
	a.count(&a.be.reads, shape)
	return err
}

func (a *timedArray) WriteSection(lo, shape []int64, buf []float64) error {
	start := a.be.tr.now()
	err := a.inner.WriteSection(lo, shape, buf)
	a.be.charge(&a.be.writeNs, "disk.WriteSection", start)
	a.count(&a.be.writes, shape)
	return err
}

func (a *timedArray) ReadAsync(lo, shape []int64, buf []float64) disk.Completion {
	a.count(&a.be.reads, shape)
	return &timedCompletion{be: a.be, total: &a.be.readNs, name: "disk.ReadSection",
		start: a.be.tr.now(), inner: disk.AsAsync(a.inner).ReadAsync(lo, shape, buf)}
}

func (a *timedArray) WriteAsync(lo, shape []int64, buf []float64) disk.Completion {
	a.count(&a.be.writes, shape)
	return &timedCompletion{be: a.be, total: &a.be.writeNs, name: "disk.WriteSection",
		start: a.be.tr.now(), inner: disk.AsAsync(a.inner).WriteAsync(lo, shape, buf)}
}

// timedCompletion closes an asynchronous operation's span when it is
// awaited: issue to completion as the engine saw it.
type timedCompletion struct {
	be    *timedBackend
	total *atomic.Int64
	name  string
	start int64
	inner disk.Completion
}

func (c *timedCompletion) Await() error {
	err := c.inner.Await()
	c.be.charge(c.total, c.name, c.start)
	return err
}
