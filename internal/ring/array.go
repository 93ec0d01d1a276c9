package ring

// Section I/O over the ring: every operation is split into placement
// blocks (runs of leading-dimension rows), each of which lives on R
// shards chosen by the placement policy. Reads take one replica per block
// with typed-error failover; writes fan out to every replica and degrade
// — not fail — when a replica cannot take the write.

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/disk"
	"repro/internal/obs"
)

// Array is one replicated disk-resident array.
type Array struct {
	st       *Store
	name     string
	nameHash uint64
	dims     []int64
	rowSize  int64 // elements per leading-dimension row
	// bounds are the placement-block boundaries: block b holds rows
	// [bounds[b], bounds[b+1]). Fixed at Create, whatever the policy.
	bounds []int64
	blocks int64 // len(bounds) - 1

	// locals maps shard id → that shard's full-extent local copy.
	locals map[int]disk.Array

	// amu guards the degraded-write state and the placement cache.
	amu sync.Mutex
	// stale marks replica copies that missed a write or failed a repair:
	// block → set of shard ids whose copy must not serve reads.
	stale map[int64]map[int]bool
	// cands caches each block's replica list in ring order; the
	// rebalancer rewrites it on membership changes.
	cands [][]int
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

// blockKey is block b's position on the hash ring.
func (a *Array) blockKey(b int64) uint64 {
	return mix(a.st.opt.Seed ^ a.nameHash ^ mix(uint64(b)+0x2545f4914f6cdd1d))
}

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
// their natural position: their reads are the breaker's probes.
func (a *Array) readOrderAt(b int64, now float64) []int {
	hp := a.st.hp
	if hp == nil {
		return a.readOrder(b)
	}
	a.amu.Lock()
	cands := a.cands[b]
	st := a.stale[b]
	var staleOf map[int]bool
	if len(st) > 0 {
		staleOf = make(map[int]bool, len(st))
		for id := range st {
			staleOf[id] = true
		}
	}
	a.amu.Unlock()
	healthy := make([]int, 0, len(cands))
	var tripped, stl []int
	for _, id := range cands {
		switch {
		case staleOf[id]:
			stl = append(stl, id)
		case hp.tripped(id, now):
			tripped = append(tripped, id)
		default:
			healthy = append(healthy, id)
		}
	}
	if len(tripped) == 0 && len(stl) == 0 {
		return cands
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

// sliceRuns splits section rows [lo0, lo0+n0) into runs, coalescing
// consecutive blocks with an identical replica order (so a single-shard
// ring issues a single sub-operation per section and the sub-operation
// count stays near the shard count, not the block count). order is
// computed by ord, which sees each block once, in ascending order.
func (a *Array) sliceRuns(lo0, n0 int64, ord func(b int64) []int) []run {
	var runs []run
	row := lo0
	end := lo0 + n0
	b, ok := slices.BinarySearch(a.bounds, row)
	if !ok {
		b-- // row lies inside block b-1
	}
	for ; row < end; b++ {
		rhi := min(end, a.bounds[b+1])
		order := ord(int64(b))
		if len(runs) > 0 && sameOrder(runs[len(runs)-1].order, order) {
			last := &runs[len(runs)-1]
			last.rhi = rhi
			last.nBlocks++
		} else {
			runs = append(runs, run{rlo: row, rhi: rhi, firstBlock: int64(b), nBlocks: 1, order: order})
		}
		row = rhi
	}
	return runs
}

func sameOrder(x, y []int) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// subSection returns the lo/shape/buffer triple of a run's slice of the
// section. The buffer is packed by the section shape, so sub-buffers
// stride by the section's row size, not the array's.
func (a *Array) subSection(lo, shape []int64, buf []float64, r run) (slo, sshape []int64, sbuf []float64) {
	if len(shape) == 0 {
		return lo, shape, buf
	}
	secRow := int64(1)
	for _, s := range shape[1:] {
		secRow *= s
	}
	slo = append([]int64(nil), lo...)
	slo[0] = r.rlo
	sshape = append([]int64(nil), shape...)
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

// ReadAsync starts the collective read in the background; the per-shard
// transfers already run concurrently.
func (a *Array) ReadAsync(lo, shape []int64, buf []float64) disk.Completion {
	return disk.Go(func() error { return a.collective(lo, shape, buf, true) })
}

// WriteAsync starts the collective write in the background.
func (a *Array) WriteAsync(lo, shape []int64, buf []float64) disk.Completion {
	return disk.Go(func() error { return a.collective(lo, shape, buf, false) })
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
	if read {
		ord := a.readOrder
		if a.st.hp != nil {
			// One modelled "now" per section keeps the replica order (and
			// hence run coalescing) consistent across the section's blocks.
			now := a.st.hp.now()
			ord = func(b int64) []int { return a.readOrderAt(b, now) }
		}
		runs := a.sliceRuns(lo0, n0, ord)
		return a.readRuns(lo, shape, buf, runs)
	}
	runs := a.sliceRuns(lo0, n0, a.candidates)
	return a.writeRuns(lo, shape, buf, runs)
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

// readRuns serves each run from its first reachable replica. Runs are
// grouped by their preferred shard and each group is executed serially
// by one goroutine, so the sub-operation order every shard sees is
// deterministic for a given plan (failover traffic excepted).
func (a *Array) readRuns(lo, shape []int64, buf []float64, runs []run) error {
	groups := map[int][]int{} // preferred shard → run indices, ascending
	var order []int
	for i, r := range runs {
		if len(r.order) == 0 {
			return disk.NewIOError("read", a.name, lo, shape, false,
				&BlockError{Array: a.name, Block: r.firstBlock})
		}
		p := r.order[0]
		if _, ok := groups[p]; !ok {
			order = append(order, p)
		}
		groups[p] = append(groups[p], i)
	}
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for _, p := range order {
		idxs := groups[p]
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				errs[i] = a.readRun(lo, shape, buf, runs[i])
			}
		}(idxs)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// readRun reads one run, trying each replica in order under the
// per-replica retry budget.
func (a *Array) readRun(lo, shape []int64, buf []float64, r run) error {
	slo, sshape, sbuf := a.subSection(lo, shape, buf, r)
	hp := a.st.hp
	finals := make([]error, 0, len(r.order))
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
		err := a.st.attempt(a.name, func() error {
			return la.ReadSection(slo, sshape, sbuf)
		})
		if err == nil {
			if hp != nil {
				a.hedgeAfterRead(slo, sshape, sbuf, r, ci, id)
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
			hp.observe(id, hp.now(), 1, false)
		}
		finals = append(finals, err)
		a.st.noteFailover(sh, a.name, r.firstBlock, err)
	}
	retryable := false
	for _, err := range finals {
		if disk.IsTransient(err) {
			retryable = true
		}
	}
	return disk.NewIOError("read", a.name, slo, sshape, retryable,
		&BlockError{Array: a.name, Block: r.firstBlock, Shards: append([]int(nil), r.order...), Errs: finals})
}

// writeRuns fans each run out to all its replicas. Sub-writes are
// grouped per shard and executed serially by one goroutine per shard. A
// replica that cannot take a write is marked stale for the run's blocks
// (degraded write); only a run with no successful replica at all fails.
func (a *Array) writeRuns(lo, shape []int64, buf []float64, runs []run) error {
	type job struct {
		runIdx int
		shard  int
	}
	groups := map[int][]job{}
	var order []int
	for i, r := range runs {
		if len(r.order) == 0 {
			return disk.NewIOError("write", a.name, lo, shape, false,
				&BlockError{Array: a.name, Block: r.firstBlock})
		}
		for _, id := range r.order {
			if _, ok := groups[id]; !ok {
				order = append(order, id)
			}
			groups[id] = append(groups[id], job{runIdx: i, shard: id})
		}
	}
	okCount := make([]int, len(runs))
	lastErr := make([][]error, len(runs))
	for i, r := range runs {
		lastErr[i] = make([]error, len(r.order))
	}
	// A successful write that covers a block completely replaces its
	// contents, so it clears the block's stale flag on that replica: the
	// copy is current again. Partial covers stay conservative.
	fullRows := true
	for i := 1; i < len(a.dims); i++ {
		if lo[i] != 0 || shape[i] != a.dims[i] {
			fullRows = false
		}
	}
	var wnow float64
	if a.st.hp != nil {
		wnow = a.st.hp.now()
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	degradedNew := false
	degradedCleared := false
	for _, id := range order {
		jobs := groups[id]
		wg.Add(1)
		go func(id int, jobs []job) {
			defer wg.Done()
			for _, j := range jobs {
				r := runs[j.runIdx]
				slo, sshape, sbuf := a.subSection(lo, shape, buf, r)
				la := a.local(id)
				var err error
				if la == nil {
					err = fmt.Errorf("ring: shard %d holds no copy of %q", id, a.name)
				} else {
					err = a.st.attempt(a.name, func() error {
						return la.WriteSection(slo, sshape, sbuf)
					})
				}
				if hp := a.st.hp; hp != nil {
					// Writes are observed (they feed scoring and heal the
					// injector's windows) but never breaker-gated: a write
					// always fans out to every replica for durability.
					spikes := hp.drain(id)
					n := int64(1)
					for _, d := range sshape {
						n *= d
					}
					hp.observe(id, wnow, ratioOf(a.st.opt.Disk.WriteTime(n*8, 1), spikes), err == nil)
					hp.addTailWrite(spikes)
				}
				mu.Lock()
				if err == nil {
					okCount[j.runIdx]++
					if fullRows {
						for b := r.firstBlock; b < r.firstBlock+r.nBlocks; b++ {
							if !a.blockCoveredBy(b, r.rlo, r.rhi) || !a.isStale(b, id) {
								continue
							}
							a.clearStale(b, id)
							degradedCleared = true
						}
					}
				} else {
					for ci, cand := range r.order {
						if cand == id {
							lastErr[j.runIdx][ci] = err
						}
					}
					for b := r.firstBlock; b < r.firstBlock+r.nBlocks; b++ {
						if a.markStale(b, id) {
							degradedNew = true
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
				mu.Unlock()
			}
		}(id, jobs)
	}
	wg.Wait()
	if degradedNew || degradedCleared {
		a.st.recountDegraded()
	}
	var errs []error
	for i, r := range runs {
		if okCount[i] > 0 {
			continue
		}
		finals := make([]error, 0, len(r.order))
		for _, err := range lastErr[i] {
			if err != nil {
				finals = append(finals, err)
			}
		}
		retryable := false
		for _, err := range finals {
			if disk.IsTransient(err) {
				retryable = true
			}
		}
		slo, sshape, _ := a.subSection(lo, shape, nil, r)
		errs = append(errs, disk.NewIOError("write", a.name, slo, sshape, retryable,
			&BlockError{Array: a.name, Block: r.firstBlock, Shards: append([]int(nil), r.order...), Errs: finals}))
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
	if !a.st.withData {
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
	if len(a.dims) == 0 {
		return []int64{}, []int64{}
	}
	rlo, rhi := a.blockRange(b)
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

// attempt runs one sub-operation under the store's per-replica retry
// budget: transient typed faults are retried with the policy's capped
// backoff, whose modelled delay is charged to the failover account (the
// failed attempts themselves are charged by the shard that served
// them). The final error is returned unchanged for the failover layer
// to classify.
func (s *Store) attempt(array string, fn func() error) error {
	pol := s.opt.Retry.ForArray(array)
	attempts := pol.Attempts()
	for att := 0; ; att++ {
		err := fn()
		if err == nil {
			return nil
		}
		if !disk.IsTransient(err) || att+1 >= attempts {
			return err
		}
		s.addFailoverSeconds(pol.Delay(att, s.nextRetryKey()))
	}
}
