package fault

// The crash harness models a process kill at a seeded operation
// boundary: from the chosen ordinal on, every section operation fails
// without touching the backend and every sync is refused — the process
// is dead, only the bytes that already reached the store survive. Tests
// wrap a FileStore, run to the crash point, abandon the wrapped store
// WITHOUT closing it (a real kill never runs Close), and restart
// against the surviving files to exercise the store's crash-consistency
// discipline end to end.

import (
	"errors"
	"sync"

	"repro/internal/disk"
	"repro/internal/obs"
)

// ErrCrash is the cause carried by every operation refused after the
// crash point. It is non-retryable: a dead process does not come back
// by retrying, only by restarting (exec.RunResilient's reopen path).
var ErrCrash = errors.New("fault: injected crash")

// Crash is a disk.Backend wrapper that kills the run at a fixed
// operation ordinal. Operations before the crash point pass through
// untouched; the crash-point operation and everything after fail with
// ErrCrash and never reach the backend.
type Crash struct {
	inner disk.Backend
	at    int64

	mu  sync.Mutex
	ord int64
}

// WrapCrash returns a view of be that crashes at operation ordinal at
// (0-based; at <= 0 crashes on the first operation).
func WrapCrash(be disk.Backend, at int64) *Crash {
	return &Crash{inner: be, at: at}
}

// Inner returns the wrapped backend.
func (c *Crash) Inner() disk.Backend { return c.inner }

// Crashed reports whether the crash point has been reached.
func (c *Crash) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ord > c.at
}

// Ops returns how many section operations have been observed — run once
// without a crash (at beyond the op count) to learn the range of
// meaningful crash points.
func (c *Crash) Ops() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ord
}

// step advances the ordinal and reports whether the operation dies.
func (c *Crash) step() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	dead := c.ord >= c.at
	c.ord++
	return dead
}

// Create creates the array on the inner backend (metadata operations do
// not consume crash ordinals; crashes land on section I/O boundaries).
func (c *Crash) Create(name string, dims []int64) (disk.Array, error) {
	a, err := c.inner.Create(name, dims)
	if err != nil {
		return nil, err
	}
	return &crashArray{c: c, a: a}, nil
}

// Open opens the array on the inner backend.
func (c *Crash) Open(name string) (disk.Array, error) {
	a, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &crashArray{c: c, a: a}, nil
}

// Stats delegates to the inner backend.
func (c *Crash) Stats() disk.Stats { return c.inner.Stats() }

// ResetStats delegates to the inner backend.
func (c *Crash) ResetStats() { c.inner.ResetStats() }

// Close delegates to the inner backend. Crash tests abandon the backend
// instead of closing it — a killed process never runs Close.
func (c *Crash) Close() error { return c.inner.Close() }

// SetMetrics forwards to the inner backend.
func (c *Crash) SetMetrics(reg *obs.Registry) { disk.AttachMetrics(c.inner, reg) }

// Sync refuses once the crash point is reached — a dead process cannot
// flush — and otherwise syncs the inner backend.
func (c *Crash) Sync() error {
	if c.Crashed() {
		return ErrCrash
	}
	return disk.SyncBackend(c.inner)
}

// crashArray fails section I/O from the crash point on.
type crashArray struct {
	c *Crash
	a disk.Array
}

func (ca *crashArray) Name() string  { return ca.a.Name() }
func (ca *crashArray) Dims() []int64 { return ca.a.Dims() }

func (ca *crashArray) ReadSection(lo, shape []int64, buf []float64) error {
	if ca.c.step() {
		return disk.NewIOError("read", ca.a.Name(), lo, shape, false, ErrCrash)
	}
	return ca.a.ReadSection(lo, shape, buf)
}

func (ca *crashArray) WriteSection(lo, shape []int64, buf []float64) error {
	if ca.c.step() {
		return disk.NewIOError("write", ca.a.Name(), lo, shape, false, ErrCrash)
	}
	return ca.a.WriteSection(lo, shape, buf)
}
