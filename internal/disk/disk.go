// Package disk provides the disk-resident array substrate the generated
// out-of-core code runs against: named multi-dimensional arrays on
// secondary storage accessed by hyper-rectangular sections (the unit of
// I/O, mirroring the Disk Resident Arrays abstraction the paper's
// generated code uses). Two backends are provided: a simulator that
// charges the machine's I/O cost model (usable at paper scale, with or
// without backing data) and a real file-backed store for small-scale
// integration tests.
//
// Backend and Array are synchronous: a section call returns when the
// section has moved. Both backends, and the wrappers over them (fault
// injection, tracing, the ring), take concurrent section calls; the
// execution engine makes one at a time, in program order. (async.go keeps
// the names of the former completion-handle contract for the benchmark's
// wrapper only.)
package disk

import (
	"fmt"
	"sync"

	"repro/internal/machine"
	"repro/internal/obs"
)

// Stats accumulates I/O activity and modelled time.
type Stats struct {
	ReadOps      int64
	WriteOps     int64
	BytesRead    int64
	BytesWritten int64
	// ReadTime and WriteTime are modelled seconds under the backend's disk
	// parameters.
	ReadTime  float64
	WriteTime float64
}

// Time returns total modelled I/O seconds.
func (s Stats) Time() float64 { return s.ReadTime + s.WriteTime }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ReadOps += other.ReadOps
	s.WriteOps += other.WriteOps
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.ReadTime += other.ReadTime
	s.WriteTime += other.WriteTime
}

func (s Stats) String() string {
	return fmt.Sprintf("reads %d ops/%d B (%.2f s), writes %d ops/%d B (%.2f s)",
		s.ReadOps, s.BytesRead, s.ReadTime, s.WriteOps, s.BytesWritten, s.WriteTime)
}

// Array is a disk-resident array accessed by sections.
//
// An implementation must not keep lo or shape after ReadSection or
// WriteSection returns: the execution engine reuses one lo/shape pair
// per plan step, rewriting it for the step's next section. Whatever
// outlives the call takes a copy — NewIOError copies both into the
// *IOError it builds, trace.Recorder appends their values to its log, and
// Sim copies lo before poisoning a silently lost write.
type Array interface {
	// Name returns the array's identifier.
	Name() string
	// Dims returns the array's extents.
	Dims() []int64
	// ReadSection reads the hyper-rectangle [lo, lo+shape) into buf
	// (row-major, length Π shape). buf may be nil for cost-only backends.
	// lo and shape are only borrowed for the call.
	ReadSection(lo, shape []int64, buf []float64) error
	// WriteSection writes buf into the hyper-rectangle [lo, lo+shape).
	// lo and shape are only borrowed for the call.
	WriteSection(lo, shape []int64, buf []float64) error
}

// Backend creates and opens disk-resident arrays and accumulates I/O
// statistics.
type Backend interface {
	Create(name string, dims []int64) (Array, error)
	Open(name string) (Array, error)
	Stats() Stats
	// ResetStats zeroes the counters (e.g. after loading inputs, so that
	// measurements cover only the computation).
	ResetStats()
	Close() error
}

// checkSection validates a section against array dims and returns the
// element count.
func checkSection(dims, lo, shape []int64) (int64, error) {
	if len(lo) != len(dims) || len(shape) != len(dims) {
		return 0, fmt.Errorf("disk: section rank %d/%d does not match array rank %d", len(lo), len(shape), len(dims))
	}
	n := int64(1)
	for i := range dims {
		if lo[i] < 0 || shape[i] <= 0 || lo[i]+shape[i] > dims[i] {
			return 0, fmt.Errorf("disk: section lo=%v shape=%v out of bounds for dims %v", lo, shape, dims)
		}
		n *= shape[i]
	}
	return n, nil
}

// MetricsSetter is implemented by backends that can publish their I/O
// accounting into an obs.Registry alongside the Stats struct.
type MetricsSetter interface {
	// SetMetrics attaches the registry. Pass nil to detach.
	SetMetrics(*obs.Registry)
}

// AttachMetrics attaches reg to the backend if it supports metrics
// publishing, reporting whether it did. Wrapping backends (e.g.
// trace.Recorder) implement MetricsSetter by forwarding to their inner
// backend.
func AttachMetrics(be Backend, reg *obs.Registry) bool {
	if ms, ok := be.(MetricsSetter); ok {
		ms.SetMetrics(reg)
		return true
	}
	return false
}

// Metric names published by the backends. Per-array variants append
// "/<array name>".
const (
	MetricReadOps    = "disk.read.ops"
	MetricReadBytes  = "disk.read.bytes"
	MetricWriteOps   = "disk.write.ops"
	MetricWriteBytes = "disk.write.bytes"
)

// Ledger is the instrumented accounting every backend's Stats come from:
// integer operation and byte tallies behind a mutex shared by the
// backend's arrays, optionally mirrored charge by charge into an attached
// metrics registry. Decorating backends that present their own front-door
// account (ring.Store) hold a Ledger too, so the counters are only ever
// mutated here: the tallies are unexported, and every Stats a backend
// reports is a Snapshot value.
//
// Modelled times are not accumulated: the cost model is linear in
// operations and bytes, so Snapshot derives them from the tallies. Stats
// therefore do not depend on the order in which concurrently issued
// operations complete — two runs moving the same sections report
// identical Stats, float fields included.
//
// The ledger owns the registry instruments it created: Reset zeroes only
// those, so a shared registry's other producers (solver, engine) are
// untouched by a backend's ResetStats.
type Ledger struct {
	mu    sync.Mutex
	s     Stats // ReadTime/WriteTime unused, see Snapshot
	d     machine.Disk
	integ IntegrityCounts
	reg   *obs.Registry
	// total holds the unlabelled counters and arrays each array's
	// "/<array>" ones — the instruments this ledger owns. A direction's
	// pair is registered on its first charge, so a charge builds no name.
	total  ledgerCounters
	arrays map[string]*ledgerCounters
}

// ledgerCounters are one account's op and byte counters by direction,
// and its verified-blocks counter (a lifetime mirror, see chargeVerify).
type ledgerCounters struct {
	ops, bytes [2]*obs.Counter
	verified   *obs.Counter
}

// The metric names by direction (0 read, 1 write): ops, then bytes.
var ledgerMetrics = [2][2]string{{MetricReadOps, MetricReadBytes}, {MetricWriteOps, MetricWriteBytes}}

func (c *ledgerCounters) reset() {
	for _, m := range [...]*obs.Counter{c.ops[0], c.ops[1], c.bytes[0], c.bytes[1]} {
		if m != nil {
			m.Reset()
		}
	}
}

// NewLedger returns an empty ledger charging under disk model d.
func NewLedger(d machine.Disk) *Ledger { return &Ledger{d: d} }

// SetMetrics attaches (or, with nil, detaches) a registry.
func (l *Ledger) SetMetrics(reg *obs.Registry) {
	l.mu.Lock()
	l.reg = reg
	l.total, l.arrays = ledgerCounters{}, map[string]*ledgerCounters{}
	l.mu.Unlock()
}

// ChargeRead accounts one section read of the named array.
func (l *Ledger) ChargeRead(array string, bytes int64) {
	l.mu.Lock()
	l.s.ReadOps++
	l.s.BytesRead += bytes
	l.mirrorLocked(array, 0, bytes)
	l.mu.Unlock()
}

// ChargeWrite accounts one section write of the named array.
func (l *Ledger) ChargeWrite(array string, bytes int64) {
	l.mu.Lock()
	l.s.WriteOps++
	l.s.BytesWritten += bytes
	l.mirrorLocked(array, 1, bytes)
	l.mu.Unlock()
}

// mirrorLocked adds one operation moving bytes in direction dir to the
// attached registry's totals and the array's own counters. Callers hold
// l.mu.
func (l *Ledger) mirrorLocked(array string, dir int, bytes int64) {
	if l.reg == nil {
		return
	}
	c := l.arrayLocked(array)
	if c.ops[dir] == nil {
		c.ops[dir] = l.reg.Counter(ledgerMetrics[dir][0] + "/" + array)
		c.bytes[dir] = l.reg.Counter(ledgerMetrics[dir][1] + "/" + array)
	}
	if l.total.ops[dir] == nil {
		l.total.ops[dir] = l.reg.Counter(ledgerMetrics[dir][0])
		l.total.bytes[dir] = l.reg.Counter(ledgerMetrics[dir][1])
	}
	for _, c := range [...]*ledgerCounters{&l.total, c} {
		c.ops[dir].Inc()
		c.bytes[dir].Add(bytes)
	}
}

// arrayLocked returns the array's counters. Callers hold l.mu.
func (l *Ledger) arrayLocked(array string) *ledgerCounters {
	c := l.arrays[array]
	if c == nil {
		c = &ledgerCounters{}
		l.arrays[array] = c
	}
	return c
}

// chargeVerify accounts block checksum verifications on a section read.
// Integrity tallies are lifetime counters: unlike the I/O charges they
// survive Reset, because recovery restarts ResetStats per attempt but
// corruption accounting must span the whole resilient run. For the same
// reason the registry mirrors are not ledger-owned instruments.
func (l *Ledger) chargeVerify(array string, blocks int64) {
	if blocks <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.integ.VerifiedBlocks += blocks
	if l.reg == nil {
		return
	}
	c := l.arrayLocked(array)
	if c.verified == nil {
		c.verified = l.reg.Counter(MetricIntegrityBlocks + "/" + array)
	}
	if l.total.verified == nil {
		l.total.verified = l.reg.Counter(MetricIntegrityBlocks)
	}
	l.total.verified.Add(blocks)
	c.verified.Add(blocks)
}

// chargeDetect accounts blocks that failed checksum verification; like
// chargeVerify it survives Reset.
func (l *Ledger) chargeDetect(array string, blocks int64) {
	if blocks <= 0 {
		return
	}
	l.mu.Lock()
	l.integ.Detected += blocks
	reg := l.reg
	l.mu.Unlock()
	if reg != nil {
		reg.Counter(MetricIntegrityDetected).Add(blocks)
		reg.Counter(MetricIntegrityDetected + "/" + array).Add(blocks)
	}
}

// integSnapshot copies the integrity tallies.
func (l *Ledger) integSnapshot() IntegrityCounts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.integ
}

// Snapshot returns the tallies with the modelled times they imply. An
// idle direction reports zero time whatever the disk model (an unset
// bandwidth must not turn 0 bytes into NaN).
func (l *Ledger) Snapshot() Stats {
	l.mu.Lock()
	s := l.s
	l.mu.Unlock()
	if s.ReadOps > 0 {
		s.ReadTime = l.d.ReadTime(s.BytesRead, s.ReadOps)
	}
	if s.WriteOps > 0 {
		s.WriteTime = l.d.WriteTime(s.BytesWritten, s.WriteOps)
	}
	return s
}

// Reset zeroes the tallies and this ledger's own registry instruments —
// mirroring ResetStats semantics into the metrics view.
func (l *Ledger) Reset() {
	l.mu.Lock()
	l.s = Stats{}
	for _, c := range l.arrays {
		c.reset()
	}
	l.total.reset()
	l.mu.Unlock()
}
