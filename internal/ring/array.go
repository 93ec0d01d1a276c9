package ring

// Section I/O over the ring: every operation is split into placement
// blocks (runs of leading-dimension rows), each of which lives on R
// shards. Reads take one replica per block with typed-error failover;
// writes fan out to every replica and degrade — not fail — when a
// replica cannot take the write.

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/disk"
	"repro/internal/obs"
)

// Array is one replicated disk-resident array.
type Array struct {
	st      *Store
	name    string
	dims    []int64
	rowSize int64 // elements per leading-dimension row
	// bounds are the placement-block boundaries: block b holds rows
	// [bounds[b], bounds[b+1]). Set at Create; a membership change
	// rewrites bounds, blocks, cands and stale together under amu, and
	// must not overlap section I/O on the array.
	bounds []int64
	blocks int64 // len(bounds) - 1

	// locals maps shard id → that shard's full-extent local copy.
	locals map[int]disk.Array

	// amu guards the degraded-write state and the placement.
	amu sync.Mutex
	// stale marks replica copies that missed a write or failed a repair:
	// block → set of shard ids whose copy must not serve reads.
	stale map[int64]map[int]bool
	// cands is each block's replica list in ring order, primary first.
	cands [][]int

	// smu guards free, the collective scratch kept for reuse.
	smu  sync.Mutex
	free []*scratch
}

// BlockError is the typed, attributed error for a block none of whose
// replicas could serve an operation: the quorum-unreachable case. It is
// always wrapped in a *disk.IOError by the ring, so callers classify it
// with errors.As like every other disk fault; Unwrap exposes the
// per-replica causes (the last error each replica returned).
type BlockError struct {
	Array  string  // array name
	Block  int64   // first placement-block ordinal of the failed run
	Shards []int   // replica shards tried, in ring order
	Errs   []error // final error per tried replica
}

func (e *BlockError) Error() string {
	return fmt.Sprintf("ring: array %q block %d unreachable on all %d replica(s) %v: %v",
		e.Array, e.Block, len(e.Shards), e.Shards, errors.Join(e.Errs...))
}

// Unwrap exposes the per-replica causes to errors.Is/As, so an
// integrity failure on every replica is still visible as a
// *disk.IntegrityError to the recovery layer.
func (e *BlockError) Unwrap() []error { return e.Errs }

func (a *Array) Name() string  { return a.name }
func (a *Array) Dims() []int64 { return append([]int64(nil), a.dims...) }

// d0 is the leading extent (1 for rank-0 arrays, which occupy a single
// block).
func (a *Array) d0() int64 {
	if len(a.dims) == 0 {
		return 1
	}
	return a.dims[0]
}

// candidates returns block b's replica list in ring order.
func (a *Array) candidates(b int64) []int {
	a.amu.Lock()
	defer a.amu.Unlock()
	return a.cands[b]
}

// readOrder returns the replicas of block b a read may use, in ring
// order with stale copies moved out: healthy replicas first, stale ones
// appended as a last resort (a block whose every copy is stale is served
// best-effort rather than refused — the checksum layer still catches
// rot, and the scrub path re-converges the copies). Every stale copy
// that lost its position to a healthy one is tallied as a DemoteStale
// demotion in the per-shard tier report.
func (a *Array) readOrder(b int64) []int {
	a.amu.Lock()
	cands := a.cands[b]
	st := a.stale[b]
	if len(st) == 0 {
		a.amu.Unlock()
		return cands
	}
	healthy := make([]int, 0, len(cands))
	var stl []int
	for _, id := range cands {
		if st[id] {
			stl = append(stl, id)
		} else {
			healthy = append(healthy, id)
		}
	}
	a.amu.Unlock()
	if len(healthy) > 0 {
		for _, id := range stl {
			a.st.recordDemotion(id, DemoteStale)
		}
	}
	return append(healthy, stl...)
}

// readOrderAt is readOrder with the health plane consulted: replicas
// whose breaker is open at modelled time now are demoted behind the
// healthy candidates but ahead of stale ones — an open shard is slow
// yet its copy is current, a stale copy is not. Half-open shards keep
// their natural position: their reads are the breaker's probes. When
// every candidate is healthy it returns the cached list itself.
func (a *Array) readOrderAt(b int64, now float64) []int {
	hp := a.st.hp
	if hp == nil {
		return a.readOrder(b)
	}
	a.amu.Lock()
	cands := a.cands[b]
	var staleOf map[int]bool
	if st := a.stale[b]; len(st) > 0 {
		staleOf = maps.Clone(st)
	}
	a.amu.Unlock()
	k := 0 // cands[:k] are healthy
	for k < len(cands) && !staleOf[cands[k]] && !hp.tripped(cands[k], now) {
		k++
	}
	if k == len(cands) {
		return cands
	}
	// tripped is idempotent at a fixed now, so cands[k] may be asked again.
	healthy := append(make([]int, 0, len(cands)), cands[:k]...)
	var tripped, stl []int
	for _, id := range cands[k:] {
		switch {
		case staleOf[id]:
			stl = append(stl, id)
		case hp.tripped(id, now):
			tripped = append(tripped, id)
		default:
			healthy = append(healthy, id)
		}
	}
	if len(healthy) > 0 {
		for _, id := range tripped {
			a.st.recordDemotion(id, DemoteBreakerOpen)
		}
	}
	if len(healthy)+len(tripped) > 0 {
		for _, id := range stl {
			a.st.recordDemotion(id, DemoteStale)
		}
	}
	out := append(healthy, tripped...)
	return append(out, stl...)
}

// markStale records that shard id's copy of block b missed a write.
// Reports whether the flag is new.
func (a *Array) markStale(b int64, id int) bool {
	a.amu.Lock()
	defer a.amu.Unlock()
	set := a.stale[b]
	if set == nil {
		set = map[int]bool{}
		a.stale[b] = set
	}
	if set[id] {
		return false
	}
	set[id] = true
	return true
}

// clearStale removes shard id's stale flag for block b.
func (a *Array) clearStale(b int64, id int) {
	a.amu.Lock()
	defer a.amu.Unlock()
	if set := a.stale[b]; set != nil {
		delete(set, id)
		if len(set) == 0 {
			delete(a.stale, b)
		}
	}
}

// local returns shard id's local copy of the array (nil if absent).
func (a *Array) local(id int) disk.Array {
	a.amu.Lock()
	defer a.amu.Unlock()
	return a.locals[id]
}

// isStale reports whether shard id's copy of block b is stale.
func (a *Array) isStale(b int64, id int) bool {
	a.amu.Lock()
	defer a.amu.Unlock()
	return a.stale[b][id]
}

// run is one contiguous row range of a section sharing a replica
// assignment: blocks [firstBlock, firstBlock+nBlocks) all map to order.
type run struct {
	rlo, rhi   int64 // section rows [rlo, rhi) in array coordinates
	firstBlock int64
	nBlocks    int64
	order      []int // replica shards in preference order
}

// scratch is one collective's working memory: its runs and the
// sub-section of the run in hand. Arrays lend it from a bounded free
// list, so a section call allocates nothing per run or per block.
type scratch struct {
	runs        []run
	slo, sshape []int64
}

// scratchFree bounds an array's free list: a few concurrent collectives
// (the store takes concurrent section calls) reuse theirs, more allocate.
const scratchFree = 4

func (a *Array) getScratch() *scratch {
	var sc *scratch
	a.smu.Lock()
	if k := len(a.free); k > 0 {
		sc, a.free = a.free[k-1], a.free[:k-1]
	}
	a.smu.Unlock()
	if sc == nil {
		sc = &scratch{slo: make([]int64, len(a.dims)), sshape: make([]int64, len(a.dims))}
	}
	return sc
}

func (a *Array) putScratch(sc *scratch) {
	clear(sc.runs) // drop the replica lists a rebalance may replace
	sc.runs = sc.runs[:0]
	a.smu.Lock()
	if len(a.free) < scratchFree {
		a.free = append(a.free, sc)
	}
	a.smu.Unlock()
}

// sliceRuns splits section rows [lo0, lo0+n0) into sc.runs, coalescing
// consecutive blocks with an identical replica order (so a single-shard
// ring issues a single sub-operation per section and the sub-operation
// count stays near the shard count, not the block count). Reads order
// each block's replicas by readOrderAt at modelled time now, writes take
// the placement's; either way each block is asked once, in ascending
// order.
func (a *Array) sliceRuns(sc *scratch, lo0, n0 int64, read bool, now float64) {
	runs := sc.runs[:0]
	row := lo0
	end := lo0 + n0
	b, ok := slices.BinarySearch(a.bounds, row)
	if !ok {
		b-- // row lies inside block b-1
	}
	for ; row < end; b++ {
		rhi := min(end, a.bounds[b+1])
		var order []int
		if read {
			order = a.readOrderAt(int64(b), now)
		} else {
			order = a.candidates(int64(b))
		}
		if len(runs) > 0 && slices.Equal(runs[len(runs)-1].order, order) {
			last := &runs[len(runs)-1]
			last.rhi = rhi
			last.nBlocks++
		} else {
			runs = append(runs, run{rlo: row, rhi: rhi, firstBlock: int64(b), nBlocks: 1, order: order})
		}
		row = rhi
	}
	sc.runs = runs
}

// subSection returns the lo/shape/buffer triple of a run's slice of the
// section, lo and shape in sc (valid until the next call). The buffer is
// packed by the section shape, so sub-buffers stride by the section's
// row size, not the array's.
func (a *Array) subSection(sc *scratch, lo, shape []int64, buf []float64, r run) (slo, sshape []int64, sbuf []float64) {
	if len(shape) == 0 {
		return lo, shape, buf
	}
	secRow := int64(1)
	for _, s := range shape[1:] {
		secRow *= s
	}
	slo, sshape = sc.slo, sc.sshape
	copy(slo, lo)
	copy(sshape, shape)
	slo[0] = r.rlo
	sshape[0] = r.rhi - r.rlo
	if buf != nil {
		sbuf = buf[(r.rlo-lo[0])*secRow : (r.rhi-lo[0])*secRow]
	}
	return slo, sshape, sbuf
}

// ReadSection reads the section, taking each block from the first
// healthy replica in ring order and failing over on typed faults.
func (a *Array) ReadSection(lo, shape []int64, buf []float64) error {
	return a.collective(lo, shape, buf, true)
}

// WriteSection writes the section to every live replica of each block.
func (a *Array) WriteSection(lo, shape []int64, buf []float64) error {
	return a.collective(lo, shape, buf, false)
}

func (a *Array) collective(lo, shape []int64, buf []float64, read bool) error {
	op := "write"
	if read {
		op = "read"
	}
	n, err := a.checkSection(lo, shape)
	if err != nil {
		return disk.NewIOError(op, a.name, lo, shape, false, err)
	}
	// Front door: one single-disk-equivalent charge per section call,
	// the figure the execution engine's spans and metrics reconcile
	// against (failed attempts and replication live in the shard stats).
	if read {
		a.st.front.ChargeRead(a.name, n*8)
	} else {
		a.st.front.ChargeWrite(a.name, n*8)
	}
	lo0, n0 := int64(0), int64(1)
	if len(shape) > 0 {
		lo0, n0 = lo[0], shape[0]
	}
	// One modelled "now" per section keeps the replica order (and hence
	// run coalescing) consistent across the section's blocks, and stamps
	// every health observation the section makes.
	var now float64
	if a.st.hp != nil {
		now = a.st.hp.now()
	}
	sc := a.getScratch()
	defer a.putScratch(sc)
	a.sliceRuns(sc, lo0, n0, read, now)
	for _, r := range sc.runs {
		if len(r.order) == 0 {
			return disk.NewIOError(op, a.name, lo, shape, false, &BlockError{Array: a.name, Block: r.firstBlock})
		}
	}
	if read {
		return a.readRuns(sc, lo, shape, buf, now)
	}
	return a.writeRuns(sc, lo, shape, buf, now)
}

// checkSection validates the section against the array extents.
func (a *Array) checkSection(lo, shape []int64) (int64, error) {
	if len(lo) != len(a.dims) || len(shape) != len(a.dims) {
		return 0, fmt.Errorf("ring: section rank %d/%d does not match array rank %d", len(lo), len(shape), len(a.dims))
	}
	n := int64(1)
	for i := range a.dims {
		if lo[i] < 0 || shape[i] <= 0 || lo[i]+shape[i] > a.dims[i] {
			return 0, fmt.Errorf("ring: section lo=%v shape=%v out of bounds for dims %v", lo, shape, a.dims)
		}
		n *= shape[i]
	}
	return n, nil
}

// readRuns serves each run from its first reachable replica, one run
// after another on the caller's goroutine, so every shard sees its
// sub-operations in ascending run order and the whole collective —
// failover, retry jitter and health observations included — repeats
// exactly for a given plan. The modelled parallel time is unaffected:
// each shard charges only what it served, and Time() is the slowest.
func (a *Array) readRuns(sc *scratch, lo, shape []int64, buf []float64, now float64) error {
	var errs []error
	for _, r := range sc.runs {
		if err := a.readRun(sc, lo, shape, buf, r, now); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// readRun reads one run, trying each replica in order under the
// per-replica retry budget.
func (a *Array) readRun(sc *scratch, lo, shape []int64, buf []float64, r run, now float64) error {
	slo, sshape, sbuf := a.subSection(sc, lo, shape, buf, r)
	hp := a.st.hp
	var finals []error
	for ci, id := range r.order {
		sh := a.shard(id)
		if sh == nil {
			finals = append(finals, fmt.Errorf("ring: shard %d drained", id))
			continue
		}
		la := a.local(id)
		if la == nil {
			finals = append(finals, fmt.Errorf("ring: shard %d holds no copy of %q", id, a.name))
			continue
		}
		if hp != nil {
			hp.drain(id) // shed spikes not attributable to this op
		}
		err := a.st.attempt(la, true, slo, sshape, sbuf)
		if err == nil {
			if hp != nil {
				a.hedgeAfterRead(slo, sshape, sbuf, r, ci, id, now)
			}
			if ci > 0 && a.st.log.Enabled(obs.LevelInfo) {
				a.st.log.Info("ring", "replica.recovered",
					obs.F("array", a.name),
					obs.F("block", r.firstBlock),
					obs.F("shard", id))
			}
			return nil
		}
		if hp != nil {
			hp.drain(id)
			hp.observe(id, now, 1, false)
		}
		finals = append(finals, err)
		a.st.noteFailover(sh, a.name, r.firstBlock, err)
	}
	return a.runError("read", slo, sshape, r, finals)
}

// runError is the typed error of a run no replica could serve: finals
// holds the last error of each replica tried, in preference order.
func (a *Array) runError(op string, slo, sshape []int64, r run, finals []error) error {
	return disk.NewIOError(op, a.name, slo, sshape, slices.ContainsFunc(finals, disk.IsTransient),
		&BlockError{Array: a.name, Block: r.firstBlock, Shards: slices.Clone(r.order), Errs: finals})
}

// writeRuns fans each run out to all its replicas, in run order on the
// caller's goroutine like readRuns. A replica that cannot take a write is
// marked stale for the run's blocks (degraded write); only a run with no
// successful replica at all fails.
func (a *Array) writeRuns(sc *scratch, lo, shape []int64, buf []float64, now float64) error {
	// A successful write that covers a block completely replaces its
	// contents, so it clears the block's stale flag on that replica: the
	// copy is current again. Partial covers stay conservative.
	fullRows := true
	for i := 1; i < len(a.dims); i++ {
		if lo[i] != 0 || shape[i] != a.dims[i] {
			fullRows = false
		}
	}
	hp := a.st.hp
	degraded := false // a stale flag was set or cleared
	var errs []error
	for _, r := range sc.runs {
		slo, sshape, sbuf := a.subSection(sc, lo, shape, buf, r)
		written := false
		var finals []error
		for _, id := range r.order {
			la := a.local(id)
			var err error
			if la == nil {
				err = fmt.Errorf("ring: shard %d holds no copy of %q", id, a.name)
			} else {
				err = a.st.attempt(la, false, slo, sshape, sbuf)
			}
			if hp != nil {
				// Writes are observed (they feed scoring and heal the
				// injector's windows) but never breaker-gated: a write
				// always fans out to every replica for durability.
				spikes := hp.drain(id)
				n := int64(1)
				for _, d := range sshape {
					n *= d
				}
				hp.observe(id, now, ratioOf(a.st.opt.Disk.WriteTime(n*8, 1), spikes), err == nil)
				hp.addTailWrite(spikes)
			}
			if err == nil {
				written = true
				if !fullRows {
					continue
				}
				for b := r.firstBlock; b < r.firstBlock+r.nBlocks; b++ {
					if a.blockCoveredBy(b, r.rlo, r.rhi) && a.isStale(b, id) {
						a.clearStale(b, id)
						degraded = true
					}
				}
				continue
			}
			finals = append(finals, err)
			for b := r.firstBlock; b < r.firstBlock+r.nBlocks; b++ {
				if a.markStale(b, id) {
					degraded = true
				}
			}
			if a.st.log.Enabled(obs.LevelWarn) {
				a.st.log.Warn("ring", "write.degraded",
					obs.F("array", a.name),
					obs.F("shard", id),
					obs.F("block", r.firstBlock),
					obs.F("blocks", r.nBlocks),
					obs.F("error", err))
			}
		}
		if !written {
			errs = append(errs, a.runError("write", slo, sshape, r, finals))
		}
	}
	if degraded {
		a.st.recountDegraded()
	}
	return errors.Join(errs...)
}

// blockRange returns the row range [rlo, rhi) of placement block b.
func (a *Array) blockRange(b int64) (int64, int64) {
	return a.bounds[b], a.bounds[b+1]
}

// blockBuf returns a buffer that holds any one block's full-extent
// section in data mode, nil in cost-only mode.
func (a *Array) blockBuf() []float64 {
	if !a.st.opt.WithData {
		return nil
	}
	rows := int64(0)
	for b := int64(0); b < a.blocks; b++ {
		rows = max(rows, a.bounds[b+1]-a.bounds[b])
	}
	return make([]float64, rows*a.rowSize)
}

// blockCoveredBy reports whether rows [rlo, rhi) include all of block b.
func (a *Array) blockCoveredBy(b, rlo, rhi int64) bool {
	blo, bhi := a.blockRange(b)
	return rlo <= blo && bhi <= rhi
}

// blockSection returns the full-extent section of placement block b.
func (a *Array) blockSection(b int64) (lo, shape []int64) {
	return a.rowSection(a.blockRange(b))
}

// rowSection returns the full-extent section of rows [rlo, rhi).
func (a *Array) rowSection(rlo, rhi int64) (lo, shape []int64) {
	if len(a.dims) == 0 {
		return []int64{}, []int64{}
	}
	lo = make([]int64, len(a.dims))
	shape = append([]int64(nil), a.dims...)
	lo[0] = rlo
	shape[0] = rhi - rlo
	return lo, shape
}

// shard returns the live shard with the given id, nil if drained.
func (a *Array) shard(id int) *shard {
	a.st.mu.Lock()
	defer a.st.mu.Unlock()
	if id < 0 || id >= len(a.st.shards) || !a.st.shards[id].live {
		return nil
	}
	return a.st.shards[id]
}

// attempt runs one sub-operation — a read or write of la's section
// [lo, lo+shape) — under the store's per-replica retry budget: at most
// Retry.Attempts() tries, transient typed faults retried with the
// policy's capped backoff, whose modelled delay is charged to the
// failover account (the failed attempts themselves are charged by the
// shard that served them). The final error is returned unchanged for the
// failover layer to classify.
func (s *Store) attempt(la disk.Array, read bool, lo, shape []int64, buf []float64) error {
	pol := s.opt.Retry.ForArray(la.Name())
	attempts := pol.Attempts()
	for att := 0; ; att++ {
		var err error
		if read {
			err = la.ReadSection(lo, shape, buf)
		} else {
			err = la.WriteSection(lo, shape, buf)
		}
		if err == nil {
			return nil
		}
		if !disk.IsTransient(err) || att+1 >= attempts {
			return err
		}
		s.addFailoverSeconds(pol.Delay(att, s.nextRetryKey()))
	}
}
