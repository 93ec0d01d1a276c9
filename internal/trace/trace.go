// Package trace keeps the per-array I/O account of an out-of-core run —
// each array's section reads and writes, bytes and modelled seconds —
// that checks the cost model's per-array predictions (paper §5).
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Recorder wraps a disk backend and charges every successful section
// operation to its array's account: bytes from the section's shape,
// seconds from the recorder's disk model (what the simulator charges),
// never from a diff of the inner Stats, which concurrent callers blur.
// An account is bound to its array at Create/Open: an op looks nothing up.
type Recorder struct {
	inner disk.Backend
	model machine.Disk

	mu    sync.Mutex
	accts map[string]*ArraySummary
}

// NewWithDisk wraps a backend, charging each recorded operation the disk
// model's per-section time.
func NewWithDisk(inner disk.Backend, d machine.Disk) *Recorder {
	return &Recorder{inner: inner, model: d, accts: map[string]*ArraySummary{}}
}

// Summary returns the account of every array an operation touched,
// sorted by descending seconds, then by name.
func (r *Recorder) Summary() []ArraySummary {
	r.mu.Lock()
	out := make([]ArraySummary, 0, len(r.accts))
	for _, s := range r.accts {
		if s.ReadOps+s.WriteOps > 0 {
			out = append(out, *s)
		}
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(x, y ArraySummary) int {
		return cmp.Or(cmp.Compare(y.Seconds, x.Seconds), strings.Compare(x.Array, y.Array))
	})
	return out
}

// Create implements disk.Backend.
func (r *Recorder) Create(name string, dims []int64) (disk.Array, error) {
	return r.wrap(r.inner.Create(name, dims))
}

// Open implements disk.Backend.
func (r *Recorder) Open(name string) (disk.Array, error) { return r.wrap(r.inner.Open(name)) }

// Stats implements disk.Backend.
func (r *Recorder) Stats() disk.Stats { return r.inner.Stats() }

// SetMetrics implements disk.MetricsSetter by forwarding to the inner
// backend, so disk.AttachMetrics works through a recorder-wrapped backend.
func (r *Recorder) SetMetrics(reg *obs.Registry) { disk.AttachMetrics(r.inner, reg) }

// ResetStats implements disk.Backend; it also clears every array's
// account, so the summary covers exactly what the statistics cover.
func (r *Recorder) ResetStats() {
	r.inner.ResetStats()
	r.mu.Lock()
	for _, s := range r.accts {
		*s = ArraySummary{Array: s.Array}
	}
	r.mu.Unlock()
}

// Close implements disk.Backend.
func (r *Recorder) Close() error { return r.inner.Close() }

// Inner implements disk.InnerBackend, so the probes of disk.Find reach
// the real store through a traced chain.
func (r *Recorder) Inner() disk.Backend { return r.inner }

type tracedArray struct {
	disk.Array
	rec  *Recorder
	acct *ArraySummary
}

// wrap binds an opened or created array to its account.
func (r *Recorder) wrap(a disk.Array, err error) (disk.Array, error) {
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	acct := r.accts[a.Name()]
	if acct == nil {
		acct = &ArraySummary{Array: a.Name()}
		r.accts[a.Name()] = acct
	}
	return &tracedArray{Array: a, rec: r, acct: acct}, nil
}

func (a *tracedArray) ReadSection(lo, shape []int64, buf []float64) error {
	return a.account(a.Array.ReadSection(lo, shape, buf), shape, true)
}

func (a *tracedArray) WriteSection(lo, shape []int64, buf []float64) error {
	return a.account(a.Array.WriteSection(lo, shape, buf), shape, false)
}

// account charges an operation over shape unless it failed with err.
func (a *tracedArray) account(err error, shape []int64, read bool) error {
	if err != nil {
		return err
	}
	bytes := int64(8)
	for _, n := range shape {
		bytes *= n
	}
	r, s := a.rec, a.acct
	r.mu.Lock()
	defer r.mu.Unlock()
	if read {
		s.ReadOps++
		s.BytesRead += bytes
		s.Seconds += r.model.ReadTime(bytes, 1)
	} else {
		s.WriteOps++
		s.BytesWrite += bytes
		s.Seconds += r.model.WriteTime(bytes, 1)
	}
	return nil
}

// ArraySummary is one array's I/O account.
type ArraySummary struct {
	Array                                    string
	ReadOps, WriteOps, BytesRead, BytesWrite int64
	Seconds                                  float64
}

// FormatSummary renders per-array totals as a table.
func FormatSummary(sums []ArraySummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %9s %9s %14s %14s %10s\n",
		"array", "reads", "writes", "bytes read", "bytes written", "secs")
	total := ArraySummary{Array: "TOTAL"}
	for _, s := range sums {
		total.ReadOps += s.ReadOps
		total.WriteOps += s.WriteOps
		total.BytesRead += s.BytesRead
		total.BytesWrite += s.BytesWrite
		total.Seconds += s.Seconds
	}
	for _, s := range append(sums[:len(sums):len(sums)], total) {
		fmt.Fprintf(&b, "%-10s %9d %9d %14d %14d %10.2f\n",
			s.Array, s.ReadOps, s.WriteOps, s.BytesRead, s.BytesWrite, s.Seconds)
	}
	return b.String()
}

// Runs returns the number of physically contiguous runs a section
// occupies in a row-major array of the given dims: trailing dimensions
// covered in full merge into longer runs.
func Runs(dims, shape []int64) int64 {
	i := len(dims) - 1
	for i > 0 && shape[i] == dims[i] {
		i--
	}
	runs := int64(1)
	for j := 0; j < i; j++ {
		runs *= shape[j]
	}
	return runs
}
