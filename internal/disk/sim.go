package disk

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/machine"
	"repro/internal/obs"
)

// Sim is the simulated disk backend. In data mode it stores array contents
// in memory, so generated code can be verified numerically; in cost-only
// mode it stores nothing and merely accounts I/O, which allows paper-scale
// array extents (terabytes of virtual data).
//
// Sim is safe for concurrent section operations on distinct or the same
// arrays; Create, Open and Close are not.
type Sim struct {
	sl         Ledger
	withData   bool
	blockElems int64
	arrays     map[string]*simArray
	closed     bool
}

// NewSim creates a simulated disk with the given parameters. withData
// selects data mode.
func NewSim(d machine.Disk, withData bool) *Sim {
	return &Sim{
		sl:         Ledger{d: d},
		withData:   withData,
		blockElems: DefaultBlockElems,
		arrays:     map[string]*simArray{},
	}
}

// SetBlockElems overrides the shadow-checksum granularity for
// subsequently created arrays, mirroring FileStore.SetBlockElems so
// parity tests can shrink both backends' blocks identically.
func (s *Sim) SetBlockElems(n int64) {
	if n > 0 {
		s.blockElems = n
	}
}

type simArray struct {
	sim        *Sim
	name       string
	dims       []int64
	n          int64
	blockElems int64
	data       []float64 // nil in cost-only mode

	// mu orders section I/O against the shadow integrity state, exactly
	// as fileArray.mu does for the real store.
	mu sync.RWMutex
	// sums is the shadow checksum index (data mode): the CRC32C of the
	// little-endian encoding of each block, the same bytes FileStore
	// hashes, so both backends verify — and detect — identically.
	sums []uint32
	// poison marks rotten blocks in cost-only mode, where there is no
	// data to hash: injected corruption poisons a block, verification
	// reports it, RebuildChecksums clears it.
	poison map[int64]bool
}

// Create allocates a new array (zero-filled in data mode).
func (s *Sim) Create(name string, dims []int64) (Array, error) {
	if s.closed {
		return nil, fmt.Errorf("disk: backend closed")
	}
	if _, ok := s.arrays[name]; ok {
		return nil, fmt.Errorf("disk: array %q already exists", name)
	}
	a := &simArray{sim: s, name: name, dims: append([]int64(nil), dims...), blockElems: s.blockElems}
	a.n = 1
	for _, d := range dims {
		a.n *= d
	}
	if s.withData {
		for _, d := range dims {
			if d <= 0 {
				return nil, fmt.Errorf("disk: non-positive dim %d for %q", d, name)
			}
		}
		const maxDataElems = 1 << 28 // 2 GiB of float64: data mode is for tests
		if a.n > maxDataElems {
			return nil, fmt.Errorf("disk: array %q too large for data mode (%d elements)", name, a.n)
		}
		a.data = make([]float64, a.n)
		a.sums = freshSums(a.n, a.blockElems)
	} else {
		a.poison = map[int64]bool{}
	}
	s.arrays[name] = a
	return a, nil
}

// Open returns an existing array.
func (s *Sim) Open(name string) (Array, error) {
	a, ok := s.arrays[name]
	if !ok {
		return nil, fmt.Errorf("disk: array %q does not exist", name)
	}
	return a, nil
}

// Stats returns the accumulated I/O statistics.
func (s *Sim) Stats() Stats { return s.sl.Snapshot() }

// Integrity returns the lifetime checksum-verification tallies (they
// survive ResetStats; see Ledger).
func (s *Sim) Integrity() IntegrityCounts { return s.sl.integSnapshot() }

// SetMetrics mirrors every subsequent I/O charge into reg (nil detaches).
func (s *Sim) SetMetrics(reg *obs.Registry) { s.sl.SetMetrics(reg) }

// ResetStats zeroes the counters.
func (s *Sim) ResetStats() { s.sl.Reset() }

// Close releases the backend.
func (s *Sim) Close() error {
	s.closed = true
	s.arrays = nil
	return nil
}

func (a *simArray) Name() string  { return a.name }
func (a *simArray) Dims() []int64 { return append([]int64(nil), a.dims...) }

// verifyRangeLocked verifies, over the shadow index, every block covering
// element range [off, off+run) with ordinal > *last, hashing the same
// little-endian bytes the file store hashes, so both backends tally
// identical counts under identical op streams. The caller holds a.mu.
// Data mode only.
func (a *simArray) verifyRangeLocked(off, run int64, last, checked *int64, ie **IntegrityError) {
	first := off / a.blockElems
	if first <= *last {
		first = *last + 1
	}
	lastB := (off + run - 1) / a.blockElems
	for b := first; b <= lastB; b++ {
		blo, bhi := blockSpan(b, a.blockElems, a.n)
		crc := crcFloats(a.data[blo:bhi])
		*checked++
		if crc != a.sums[b] {
			if *ie == nil {
				*ie = &IntegrityError{Array: a.name, Block: b, Stored: a.sums[b], Computed: crc}
			}
			(*ie).Blocks++
		}
	}
	if lastB > *last {
		*last = lastB
	}
}

// verifySectionLocked verifies the blocks a section covers, charging
// the verification tallies and returning the wrapped integrity error on
// a mismatch. op is "read" or "write". The caller holds a.mu.
//
// Data mode is exact (and count-identical to FileStore). Cost-only mode
// has no bytes to hash, so it approximates: the verified-block tally is
// the packed section's block count, and detection tests the injector's
// poisoned blocks against the section's flat-offset hull — conservative
// (it may over-detect between the hull's rows), which only means a
// spurious heal in cost-only chaos studies, never a miss.
func (a *simArray) verifySectionLocked(op string, lo, shape []int64, nSec int64) error {
	var (
		checked int64
		ie      *IntegrityError
	)
	if a.data != nil {
		last := int64(-1)
		eachRun(a.dims, lo, shape, func(off, bufOff, run int64) error {
			a.verifyRangeLocked(off, run, &last, &checked, &ie)
			return nil
		})
	} else {
		checked = blockCount(nSec, a.blockElems)
		if len(a.poison) > 0 {
			hi := make([]int64, len(a.dims))
			for i := range hi {
				hi[i] = lo[i] + shape[i] - 1
			}
			first := FlatOffset(a.dims, lo) / a.blockElems
			lastB := FlatOffset(a.dims, hi) / a.blockElems
			for b := first; b <= lastB; b++ {
				if a.poison[b] {
					if ie == nil {
						ie = &IntegrityError{Array: a.name, Block: b}
					}
					ie.Blocks++
				}
			}
		}
	}
	a.sim.sl.chargeVerify(a.name, checked)
	if ie != nil {
		a.sim.sl.chargeDetect(a.name, ie.Blocks)
		// Rotten data re-reads identically: never retryable in place.
		return wrapIO(op, a.name, lo, shape, false, ie)
	}
	return nil
}

// reindexLocked recomputes the shadow checksum of every block covering
// the just-written section. The caller holds a.mu. Data mode only.
func (a *simArray) reindexLocked(lo, shape []int64) {
	last := int64(-1)
	eachRun(a.dims, lo, shape, func(off, bufOff, run int64) error {
		first := off / a.blockElems
		if first <= last {
			first = last + 1
		}
		lastB := (off + run - 1) / a.blockElems
		for b := first; b <= lastB; b++ {
			blo, bhi := blockSpan(b, a.blockElems, a.n)
			a.sums[b] = crcFloats(a.data[blo:bhi])
		}
		if lastB > last {
			last = lastB
		}
		return nil
	})
}

func (a *simArray) ReadSection(lo, shape []int64, buf []float64) error {
	n, err := checkSection(a.dims, lo, shape)
	if err != nil {
		return wrapIO("read", a.name, lo, shape, false, err)
	}
	a.sim.sl.ChargeRead(a.name, n*8)
	a.mu.RLock()
	defer a.mu.RUnlock()
	if err := a.verifySectionLocked("read", lo, shape, n); err != nil {
		return err
	}
	if a.data == nil || buf == nil {
		return nil
	}
	if int64(len(buf)) != n {
		return NewIOError("read", a.name, lo, shape, false,
			fmt.Errorf("disk: buffer length %d does not match section size %d", len(buf), n))
	}
	copySection(a.data, a.dims, lo, shape, buf, false)
	return nil
}

func (a *simArray) WriteSection(lo, shape []int64, buf []float64) error {
	n, err := checkSection(a.dims, lo, shape)
	if err != nil {
		return wrapIO("write", a.name, lo, shape, false, err)
	}
	a.sim.sl.ChargeWrite(a.name, n*8)
	a.mu.Lock()
	defer a.mu.Unlock()
	// Read-modify-verify: a block is only partially covered by this
	// section, so its surviving bytes feed the new checksum — verify
	// them first rather than silently blessing rot into the index.
	if err := a.verifySectionLocked("write", lo, shape, n); err != nil {
		return err
	}
	if a.data == nil || buf == nil {
		return nil
	}
	if int64(len(buf)) != n {
		return NewIOError("write", a.name, lo, shape, false,
			fmt.Errorf("disk: buffer length %d does not match section size %d", len(buf), n))
	}
	copySection(a.data, a.dims, lo, shape, buf, true)
	a.reindexLocked(lo, shape)
	return nil
}

// FlipBit flips one bit of the stored element at flat offset elem
// beneath the shadow index (bit rot); in cost-only mode the covering
// block is poisoned instead.
func (a *simArray) FlipBit(elem int64, bit uint) error {
	if elem < 0 || elem >= a.n || bit > 63 {
		return fmt.Errorf("disk: flip-bit target out of range for %q", a.name)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.data != nil {
		a.data[elem] = math.Float64frombits(math.Float64bits(a.data[elem]) ^ (1 << bit))
	} else {
		a.poison[elem/a.blockElems] = true
	}
	return nil
}

// WriteSectionSilent performs a write that lies about its outcome,
// mirroring fileArray.WriteSectionSilent: charged and indexed as a full
// success, but the stored values keep the previous contents (SilentLost)
// or everything past the leading half of the rows (SilentTorn). In
// cost-only mode the blocks covering the reverted region are poisoned.
func (a *simArray) WriteSectionSilent(lo, shape []int64, buf []float64, mode SilentMode) error {
	n, err := checkSection(a.dims, lo, shape)
	if err != nil {
		return wrapIO("write", a.name, lo, shape, false, err)
	}
	a.sim.sl.ChargeWrite(a.name, n*8)
	keep := int64(0) // packed elements that genuinely persist
	if mode == SilentTorn {
		keep = silentPrefixElems(shape)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.data == nil {
		// Poison the flat-offset hull of the reverted region.
		rlo := append([]int64(nil), lo...)
		if keep > 0 {
			rlo[0] += shape[0] / 2
		}
		hi := make([]int64, len(a.dims))
		for i := range hi {
			hi[i] = lo[i] + shape[i] - 1
		}
		first := FlatOffset(a.dims, rlo) / a.blockElems
		lastB := FlatOffset(a.dims, hi) / a.blockElems
		for b := first; b <= lastB; b++ {
			a.poison[b] = true
		}
		return nil
	}
	if buf == nil {
		return nil
	}
	if int64(len(buf)) != n {
		return NewIOError("write", a.name, lo, shape, false,
			fmt.Errorf("disk: buffer length %d does not match section size %d", len(buf), n))
	}
	old := make([]float64, n)
	copySection(a.data, a.dims, lo, shape, old, false)
	// Index the write as if it fully succeeded...
	copySection(a.data, a.dims, lo, shape, buf, true)
	a.reindexLocked(lo, shape)
	// ...then put the old values back underneath it.
	mixed := make([]float64, n)
	copy(mixed[:keep], buf[:keep])
	copy(mixed[keep:], old[keep:])
	copySection(a.data, a.dims, lo, shape, mixed, true)
	return nil
}

// copySection moves a row-major section between the full array and a
// packed buffer. Contiguous runs along the last dimension are copied with
// copy().
func copySection(data []float64, dims, lo, shape []int64, buf []float64, write bool) {
	rank := len(dims)
	if rank == 0 {
		if write {
			data[0] = buf[0]
		} else {
			buf[0] = data[0]
		}
		return
	}
	// Strides of the full array.
	strides := make([]int64, rank)
	s := int64(1)
	for i := rank - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	run := shape[rank-1]
	// Iterate all but the last dimension.
	idx := make([]int64, rank-1)
	bufOff := int64(0)
	for {
		off := lo[rank-1] * strides[rank-1]
		for i := 0; i < rank-1; i++ {
			off += (lo[i] + idx[i]) * strides[i]
		}
		if write {
			copy(data[off:off+run], buf[bufOff:bufOff+run])
		} else {
			copy(buf[bufOff:bufOff+run], data[off:off+run])
		}
		bufOff += run
		d := rank - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < shape[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			break
		}
	}
}

// LoadArray fills a whole simulated array from data without charging
// stats; used to stage test inputs.
func (s *Sim) LoadArray(name string, data []float64) error {
	a, ok := s.arrays[name]
	if !ok {
		return fmt.Errorf("disk: array %q does not exist", name)
	}
	if a.data == nil {
		return fmt.Errorf("disk: %q is cost-only; cannot load data", name)
	}
	if len(data) != len(a.data) {
		return fmt.Errorf("disk: data length %d does not match array size %d", len(data), len(a.data))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	copy(a.data, data)
	// Out-of-band staging: the loaded contents become the new truth.
	for b := range a.sums {
		blo, bhi := blockSpan(int64(b), a.blockElems, a.n)
		a.sums[b] = crcFloats(a.data[blo:bhi])
	}
	return nil
}

// ArrayNames lists the simulator's arrays in sorted order.
func (s *Sim) ArrayNames() []string {
	names := make([]string, 0, len(s.arrays))
	for name := range s.arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// VerifyArray checks every block of one array against its shadow index
// (data mode) or lists its poisoned blocks (cost-only mode). Like the
// file store's scrub it charges nothing.
func (s *Sim) VerifyArray(name string) ([]ScrubDefect, int64, error) {
	a, ok := s.arrays[name]
	if !ok {
		return nil, 0, fmt.Errorf("disk: array %q does not exist", name)
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	blocks := blockCount(a.n, a.blockElems)
	var defects []ScrubDefect
	if a.data != nil {
		for b := int64(0); b < blocks; b++ {
			blo, bhi := blockSpan(b, a.blockElems, a.n)
			crc := crcFloats(a.data[blo:bhi])
			if crc != a.sums[b] {
				defects = append(defects, ScrubDefect{Array: name, Block: b, Stored: a.sums[b], Computed: crc})
			}
		}
		return defects, blocks, nil
	}
	poisoned := make([]int64, 0, len(a.poison))
	for b := range a.poison {
		poisoned = append(poisoned, b)
	}
	sort.Slice(poisoned, func(i, j int) bool { return poisoned[i] < poisoned[j] })
	for _, b := range poisoned {
		defects = append(defects, ScrubDefect{Array: name, Block: b})
	}
	return defects, blocks, nil
}

// RebuildChecksums accepts the array's current contents as the new
// truth: the shadow index is recomputed (data mode) or the poison marks
// cleared (cost-only mode).
func (s *Sim) RebuildChecksums(name string) error {
	a, ok := s.arrays[name]
	if !ok {
		return fmt.Errorf("disk: array %q does not exist", name)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.data != nil {
		for b := range a.sums {
			blo, bhi := blockSpan(int64(b), a.blockElems, a.n)
			a.sums[b] = crcFloats(a.data[blo:bhi])
		}
		return nil
	}
	a.poison = map[int64]bool{}
	return nil
}

// DumpArray returns a copy of a whole simulated array's contents without
// charging stats; used to check test outputs.
func (s *Sim) DumpArray(name string) ([]float64, error) {
	a, ok := s.arrays[name]
	if !ok {
		return nil, fmt.Errorf("disk: array %q does not exist", name)
	}
	if a.data == nil {
		return nil, fmt.Errorf("disk: %q is cost-only; no data to dump", name)
	}
	return append([]float64(nil), a.data...), nil
}
