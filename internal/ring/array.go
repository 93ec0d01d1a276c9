package ring

// Section I/O over the ring: every operation is split into placement
// blocks (runs of leading-dimension rows), each of which lives on R
// shards. Reads take one replica per block with typed-error failover;
// writes fan out to every replica and degrade — not fail — when a
// replica cannot take the write.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/disk"
	"repro/internal/health"
	"repro/internal/obs"
)

// Array is one replicated disk-resident array.
//
// Locking: a healthy section op takes amu once, to snapshot the routing
// state (route), and nothing else of the array's: the scratch comes
// from an atomic slot. The routing state is written only under amu, and
// bounds, cands and reps are replaced, never edited in place, so the
// headers an op took under amu stay valid without it for the rest of
// the op. Stale flags are edited in place; an op copies the ones its
// blocks carry.
type Array struct {
	st      *Store
	name    string
	dims    []int64
	rowSize int64 // elements per leading-dimension row

	// amu guards the routing state: placement, stale flags and replicas.
	// A membership change rewrites bounds, blocks, cands and stale
	// together under amu, and must not overlap section I/O on the array.
	amu sync.Mutex
	// bounds are the placement-block boundaries: block b holds rows
	// [bounds[b], bounds[b+1]). Set at Create.
	bounds []int64
	blocks int64 // len(bounds) - 1
	// cands is each block's replica list in ring order, primary first.
	cands [][]int
	// stale marks replica copies that missed a write or failed a repair:
	// block → set of shard ids whose copy must not serve reads.
	stale map[int64]map[int]bool
	// reps is indexed by shard id: the live shard and its full-extent
	// local copy. Written only through setLocal.
	reps []replica

	// slot holds a finished collective's scratch for the next to reuse.
	slot atomic.Pointer[scratch]
}

// replica is one shard's stake in an array. The zero value is a shard
// that holds no copy: never had one, or drained.
type replica struct {
	sh *shard     // the live shard (its fixed id and name, and its spikes)
	la disk.Array // its local copy
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

// isStale reports whether shard id's copy of block b is stale.
func (a *Array) isStale(b int64, id int) bool {
	a.amu.Lock()
	defer a.amu.Unlock()
	return a.stale[b][id]
}

// setLocal makes la shard sh's local copy of the array; a nil la drops
// the shard from the array's replicas (it drained). Creation, membership
// changes and tests swap copies through it. It publishes a new reps
// slice, so a section op in flight keeps the one it routed with.
func (a *Array) setLocal(sh *shard, la disk.Array) {
	a.amu.Lock()
	defer a.amu.Unlock()
	reps := make([]replica, max(len(a.reps), sh.id+1))
	copy(reps, a.reps)
	reps[sh.id] = replica{}
	if la != nil {
		reps[sh.id] = replica{sh: sh, la: la}
	}
	a.reps = reps
}

// run is one contiguous row range of a section sharing a replica
// assignment: blocks [firstBlock, firstBlock+nBlocks) all map to order.
type run struct {
	rlo, rhi   int64 // section rows [rlo, rhi) in array coordinates
	firstBlock int64
	nBlocks    int64
	order      []int // replica shards in preference order
}

// scratch is one collective's working memory: its runs, the
// sub-section of the run in hand, and the op's routing snapshot. An
// array keeps one in its slot, so a section call allocates nothing per
// run or per block; a collective that finds the slot empty (another is
// in flight) makes its own.
type scratch struct {
	runs        []run
	slo, sshape []int64

	// The routing snapshot (see route).
	bounds []int64
	reps   []replica
	b0     int64  // first block of the section
	r      int    // replicas per block
	stale  []bool // stale[(b-b0)*r+i]: cands[b][i]'s copy is stale; empty when no flag is set
	ask    []int  // shards whose breakers the read asks, first appearance first
	state  []health.State
	asked  []int // by shard id: 1 + index into ask, 0 when not asked
}

func (a *Array) getScratch() *scratch {
	if sc := a.slot.Swap(nil); sc != nil {
		return sc
	}
	return &scratch{slo: make([]int64, len(a.dims)), sshape: make([]int64, len(a.dims))}
}

func (a *Array) putScratch(sc *scratch) {
	clear(sc.runs) // drop the replica lists a rebalance may replace
	sc.runs = sc.runs[:0]
	sc.bounds, sc.reps = nil, nil
	a.slot.Store(sc)
}

// staleAt reports whether, in the op's snapshot, the copy at position
// pos of block b's replica list is stale.
func (sc *scratch) staleAt(b int64, pos int) bool {
	return len(sc.stale) > 0 && sc.stale[int(b-sc.b0)*sc.r+pos]
}

// tripped reports whether the op's snapshot saw shard id's breaker open
// (see healthPlane.askBreakers).
func (sc *scratch) tripped(id int) bool {
	return id < len(sc.asked) && sc.asked[id] > 0 && sc.state[sc.asked[id]-1] == health.Open
}

// route splits section rows [lo0, lo0+n0) into sc.runs from one
// snapshot of the array's routing state: amu is held once, for the
// headers of bounds, cands and reps and a copy of the section's stale
// flags. Consecutive blocks with an identical replica order coalesce
// into one run (so a single-shard ring issues a single sub-operation
// per section and the sub-operation count stays near the shard count,
// not the block count). Writes take the placement's order. Reads order
// each block's replicas as readOrder does, asking the breakers of the
// section's non-stale candidates once each, in one tracker call, at
// modelled time now; a breaker's answer is idempotent at a fixed now,
// so that is the answer a per-block ask would get.
func (a *Array) route(sc *scratch, lo0, n0 int64, read bool, now float64) {
	end := lo0 + n0
	a.amu.Lock()
	bounds, cands := a.bounds, a.cands
	sc.bounds, sc.reps = bounds, a.reps
	b0, ok := slices.BinarySearch(bounds, lo0)
	if !ok {
		b0-- // row lies inside block b0-1
	}
	b1 := b0 + 1 // blocks [b0, b1) hold the section
	for bounds[b1] < end {
		b1++
	}
	sc.b0, sc.r = int64(b0), a.st.opt.Replicas
	sc.stale = sc.stale[:0]
	if len(a.stale) > 0 {
		for b := b0; b < b1; b++ {
			set := a.stale[int64(b)]
			for _, id := range cands[b] {
				sc.stale = append(sc.stale, set[id])
			}
		}
	}
	a.amu.Unlock()

	if read {
		a.st.hp.askBreakers(sc, cands, b0, b1, now)
	}
	runs := sc.runs[:0]
	for b, row := b0, lo0; b < b1; b++ {
		rhi := min(end, bounds[b+1])
		order := cands[b]
		if read {
			order = a.readOrder(sc, int64(b), order)
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
	for _, id := range sc.ask {
		sc.asked[id] = 0
	}
	sc.ask = sc.ask[:0]
}

// readOrder returns the replicas of block b, whose placement lists
// cands, that a read may use, in ring order with two kinds of replica
// moved out: replicas whose breaker the op's snapshot saw open are
// demoted behind the healthy candidates, and stale copies (that missed
// a write) behind those — an open shard is slow yet its copy is
// current, a stale copy is not. A block whose every copy is stale is
// served best-effort rather than refused (the checksum layer still
// catches rot, and the scrub path re-converges the copies). Half-open
// shards keep their natural position: their reads are the breaker's
// probes. Every replica that lost its position to a better one is
// tallied as a demotion in the per-shard tier report. Without a health
// plane no breaker trips. When every candidate is healthy it returns
// cands itself.
func (a *Array) readOrder(sc *scratch, b int64, cands []int) []int {
	k := 0 // cands[:k] are healthy
	for k < len(cands) && !sc.staleAt(b, k) && !sc.tripped(cands[k]) {
		k++
	}
	if k == len(cands) {
		return cands
	}
	healthy := append(make([]int, 0, len(cands)), cands[:k]...)
	var tripped, stl []int
	for i, id := range cands[k:] {
		switch {
		case sc.staleAt(b, k+i):
			stl = append(stl, id)
		case sc.tripped(id):
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
	n, err := disk.CheckSection(a.dims, lo, shape)
	if err != nil {
		return disk.NewIOError(op, a.name, lo, shape, false, fmt.Errorf("ring: %w", err))
	}
	// Front door: one single-disk-equivalent charge per section call,
	// the figure the execution engine's spans and metrics reconcile
	// against (failed attempts and replication live in the shard stats).
	// The clock after the charge is the health plane's modelled "now":
	// one per section keeps the replica order (and hence run coalescing)
	// consistent across the section's blocks, and stamps every health
	// observation the section makes.
	now := a.st.front.ChargeClock(a.name, !read, n*8)
	lo0, n0 := int64(0), int64(1)
	if len(shape) > 0 {
		lo0, n0 = lo[0], shape[0]
	}
	sc := a.getScratch()
	defer a.putScratch(sc)
	a.route(sc, lo0, n0, read, now)
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
		rep := sc.reps[id]
		if rep.sh == nil {
			finals = append(finals, fmt.Errorf("ring: shard %d drained", id))
			continue
		}
		if rep.la == nil {
			finals = append(finals, fmt.Errorf("ring: shard %d holds no copy of %q", id, a.name))
			continue
		}
		hp.drain(rep.sh) // shed spikes not attributable to this op
		err := a.st.attempt(rep.la, true, slo, sshape, sbuf)
		if err == nil {
			a.hedgeAfterRead(sc, slo, sshape, sbuf, r, ci, rep.sh, now)
			if ci > 0 && a.st.log.Enabled(obs.LevelInfo) {
				a.st.log.Info("ring", "replica.recovered",
					obs.F("array", a.name),
					obs.F("block", r.firstBlock),
					obs.F("shard", id))
			}
			return nil
		}
		hp.drain(rep.sh)
		hp.observe(id, now, 1, false)
		finals = append(finals, err)
		a.st.noteFailover(rep.sh, a.name, r.firstBlock, err)
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
		for ci, id := range r.order {
			rep := sc.reps[id]
			var err error
			if rep.la == nil {
				err = fmt.Errorf("ring: shard %d holds no copy of %q", id, a.name)
			} else {
				err = a.st.attempt(rep.la, false, slo, sshape, sbuf)
			}
			hp.observeWrite(rep.sh, id, now, sshape, err == nil)
			if err == nil {
				written = true
				if !fullRows {
					continue
				}
				// Each (block, replica) pair is visited once per op, so the
				// snapshot's flag is the current one.
				for b := r.firstBlock; b < r.firstBlock+r.nBlocks; b++ {
					if sc.staleAt(b, ci) && r.rlo <= sc.bounds[b] && sc.bounds[b+1] <= r.rhi {
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

// attempt runs one sub-operation — a read or write of la's section
// [lo, lo+shape) — under the store's per-replica retry budget: at most
// Retry.Attempts() tries, transient typed faults retried with the
// policy's capped backoff, whose modelled delay is charged to the
// failover account (the failed attempts themselves are charged by the
// shard that served them). The final error is returned unchanged for the
// failover layer to classify.
func (s *Store) attempt(la disk.Array, read bool, lo, shape []int64, buf []float64) error {
	pol := s.opt.Retry
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
