package exec

// This file is the engine's scheduler. The walker (exec.go) hands it one
// step at a time, in program order with loop bases resolved; for each step
// the scheduler binds buffer slots, works out which earlier steps it must
// wait for, places it on the modelled timeline, emits its span and runs
// it. How far execution may trail scheduling is the schedule's depth.
//
// Depth 0 is serial execution: every step runs to completion on the
// calling goroutine before the next one is scheduled. No goroutine is
// started and nothing is ever waited for, so dependency lists are empty by
// construction; both tracks share one clock, so the trace is the one-clock
// serial trace; and the walk stops at the first failed operation.
//
// Depth d > 0 is the double-buffered schedule. The run starts d issuer
// goroutines, which perform section operations in program order through
// the synchronous Array contract, up to d at once, and one inline
// executor, which runs zero-fills, compute blocks and init passes in
// program order. A handed-off step lives in a slot of a fixed ring,
// reused once its step has finished, that also holds its dependency list,
// loop position and I/O arguments; a dependency names a slot and a
// sequence number, and completion is a counter on the slot. So handing a
// step off creates no goroutine, channel or closure. Three mechanisms keep
// results bit-identical to depth 0:
//
//   - double-buffered slots: every plan buffer owns up to two instances,
//     so the next tile's read fills the shadow slot while compute and
//     write-behind still use the current one. The shadow slot is only
//     allocated while total buffer memory stays within the machine's
//     limit; under memory pressure the fill reuses the slot in place,
//     which serializes exactly like depth 0.
//   - hazard tracking: an operation waits for every earlier operation it
//     conflicts with — through a buffer slot (fill/use) or through
//     overlapping disk sections of the same array (RAW/WAR/WAW).
//   - unit barriers: all in-flight operations drain at every top-level
//     work-unit boundary, so StopAfter/Resume checkpoints and backend
//     Close see quiescent disks.
//
// The timeline is deterministic under the machine's cost model (one I/O
// channel, one compute engine): an operation starts at max(its channel's
// clock, its dependencies' finish times). OverlappedSeconds is the
// resulting critical path, SerialSeconds the plain sum every operation
// would cost back to back — the Table 3 style serial-vs-overlapped
// comparison.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// defaultPipelineDepth is the number of issuers, and so of disk operations
// in flight, when Options.PipelineDepth is zero: enough for a prefetch and
// a couple of write-behinds without flooding the backend.
const defaultPipelineDepth = 4

// inlineAhead, plus the depth, is the capacity of the ring of handed-off
// steps: how far the walker may schedule ahead of execution. It only has
// to be large enough for the walker to reach the next tile's reads while
// the current tile's compute blocks are still queued; being a constant,
// it keeps the memory a unit holds independent of the unit's length.
const inlineAhead = 256

// PipelineStats reports the pipelined schedule's modelled timeline and
// overlap counters.
type PipelineStats struct {
	// SerialSeconds is the modelled time with every disk operation and
	// compute block executed back to back (the serial schedule's critical
	// path under the same cost model).
	SerialSeconds float64
	// OverlappedSeconds is the modelled critical path with prefetch and
	// write-behind overlapping compute: never above SerialSeconds, and at
	// best max(IOSeconds, ComputeSeconds) plus barrier stalls.
	OverlappedSeconds float64
	// IOSeconds and ComputeSeconds split SerialSeconds by engine.
	IOSeconds      float64
	ComputeSeconds float64
	// PrefetchedReads counts reads issued into a shadow slot while the
	// previous instance of the buffer was still live.
	PrefetchedReads int64
	// WriteBehindWrites counts writes retired asynchronously.
	WriteBehindWrites int64
	// Barriers counts top-level work-unit boundaries (each drains all
	// in-flight operations).
	Barriers int64
}

// Speedup returns SerialSeconds / OverlappedSeconds (1 when undefined).
func (s PipelineStats) Speedup() float64 {
	if s.OverlappedSeconds <= 0 {
		return 1
	}
	return s.SerialSeconds / s.OverlappedSeconds
}

func (s PipelineStats) String() string {
	return fmt.Sprintf("serial %.3f s, overlapped %.3f s (%.2fx; I/O %.3f s, compute %.3f s; %d prefetches, %d write-behinds)",
		s.SerialSeconds, s.OverlappedSeconds, s.Speedup(), s.IOSeconds, s.ComputeSeconds, s.PrefetchedReads, s.WriteBehindWrites)
}

// dep refers to a step handed off at depth > 0: the ring slot it was
// scheduled in, its program-order number and its modelled end. A dep
// without a slot stands for a step that has already finished in real
// time (a dry-run compute block has no work, so it only has an end); the
// zero dep has finished in modelled time too (every step at depth 0).
type dep struct {
	op  *pop
	seq int64
	end float64
}

// finished reports whether the step has run. A slot is only refilled once
// its step has finished, so a dep outlives its slot's reuse.
func (d dep) finished() bool { return d.op == nil || d.op.done.Load() >= d.seq }

// pop is a slot of the scheduler's ring: the step it holds, or last held.
// The walker fills a slot only after the slot's previous step finished;
// from then until the step finishes its fields belong to the executor
// that runs it. Everything a step needs lives here, so handing one off
// allocates nothing once the ring has warmed up.
type pop struct {
	// seq is the program-order number of the slot's step; done is the
	// highest seq the slot has finished.
	seq  int64
	done atomic.Int64
	// deps are the earlier steps this one must wait for.
	deps []dep
	// inline is the work of a zero-fill, compute block or init pass, run
	// on the inline executor; a section operation has none and is run by
	// an issuer from the fields below.
	inline    func() error
	read      bool
	array     string
	arr       disk.Array
	lo, shape []int64
	data      []float64
	// dur is the modelled duration one attempt charges; where is the
	// walker's loop position when it issued the operation, formatted only
	// if the operation fails.
	dur   float64
	where []loopPos
	// io is the slot's section method, bound once so that retrying an
	// operation takes no closure.
	io func() error
}

// section performs the slot's section operation once.
func (op *pop) section() error {
	if op.read {
		return op.arr.ReadSection(op.lo, op.shape, op.data)
	}
	return op.arr.WriteSection(op.lo, op.shape, op.data)
}

// binding is a buffer instance: its tensor (nil in dry-run mode) and the
// tile base per buffer dim it was bound at.
type binding struct {
	t    *tensor.Tensor
	base []int64
}

// pslot is one instance of a double-buffered plan buffer.
type pslot struct {
	binding
	// filler is the last step producing the slot's contents; users are the
	// steps consuming them since then, except those that had no work
	// (dry-run compute blocks), of which usersEnd keeps the latest end.
	filler   dep
	users    []dep
	usersEnd float64
}

// appendDeps appends every step still tied to the slot's current
// contents.
func (sl *pslot) appendDeps(deps []dep) []dep {
	if sl.filler != (dep{}) {
		deps = append(deps, sl.filler)
	}
	if sl.usersEnd > 0 {
		deps = append(deps, dep{end: sl.usersEnd})
	}
	return append(deps, sl.users...)
}

// use records d as a consumer of the slot's current contents.
func (sl *pslot) use(d dep) {
	if d.op == nil {
		sl.usersEnd = max(sl.usersEnd, d.end)
		return
	}
	sl.users = append(sl.users, d)
}

// refill makes d the producer of the slot's contents; the users it
// waited for are spent.
func (sl *pslot) refill(d dep) {
	sl.filler, sl.users, sl.usersEnd = d, sl.users[:0], 0
}

// pipeBuf is the double-buffer state of one plan buffer; a slot exists
// from its first fill on.
type pipeBuf struct {
	slots [2]*pslot
	cur   int
}

// hazard is an outstanding disk operation registered for section
// conflict detection (nil lo: the whole array).
type hazard struct {
	dep
	lo, shape []int64
}

// scheduler is the run's schedule state. All fields are owned by the
// walking goroutine except the ring slots of running steps, the retry
// account and the failure record (each behind its mutex); the unit
// barrier orders everything else.
type scheduler struct {
	e *engine
	// depth bounds the disk operations in flight; 0 is the serial schedule.
	depth int
	bufs  map[*codegen.Buffer]*pipeBuf
	// pending tracks outstanding disk operations per array for section
	// hazard detection; finished entries are pruned on the fly.
	pending map[string]*arrayIO
	// void absorbs the fills of a serial dry run (see fillSlot).
	void pslot
	// curBytes/peakBytes track instantiated buffer memory; mBufBytes
	// mirrors curBytes into the metrics registry (nil without
	// Options.Metrics), its high-water mark being the peak watermark.
	curBytes, peakBytes int64
	mBufBytes           *obs.Gauge

	// clock[0] is the I/O channel's modelled clock, clock[comp] the compute
	// engine's. At depth 0 comp is 0: one clock, advanced by every span.
	clock [2]float64
	comp  int
	stats PipelineStats

	// retryMu/retryExtra accumulate the modelled seconds of retried disk
	// attempts and their backoff delays charged from the issuers; the unit
	// barrier folds them into the I/O clock, keeping the overlapped
	// timeline consistent with the backend's per-attempt Stats charges.
	retryMu    sync.Mutex
	retryExtra float64

	// The run's executors, started by the first step handed off and
	// stopped with the run. Handed-off steps live in ring, step seq in
	// slot seq % len(ring), which the walker refills only once the step
	// before has finished; ioq and inq list the section operations and the
	// inline steps. seq numbers the steps over the whole run; drained is
	// the last one a barrier waited for; unwoken counts steps handed off
	// since the executors last heard of any.
	ring         []pop
	ioq, inq     *queue
	closed       atomic.Bool
	execs        sync.WaitGroup
	seq, drained int64
	unwoken      int
	// oldest is the earliest step that may not have finished: every step
	// numbered below it has.
	oldest int64
	// Parked goroutines wait under mu: an executor with no step to take on
	// idle, any goroutine waiting (spins times in vain) for a step to
	// finish on blocked. nIdle and nBlocked count them, so that waking
	// costs nothing while nobody is parked.
	mu              sync.Mutex
	idle, blocked   sync.Cond
	nIdle, nBlocked atomic.Int32
	// deps is the walker's scratch for a step's dependency list.
	deps []dep
	// errMu guards the unit's failed steps by seq and its earliest failure
	// in program order; anyFailed lets the common case skip the lock.
	errMu     sync.Mutex
	failed    map[int64]error
	err       error
	errSeq    int64
	anyFailed atomic.Bool

	// Cached metrics instruments (nil without Options.Metrics, and at
	// depth 0, which has no pipeline to report on).
	mShadow, mInplace, mWriteBehind, mBarriers, mHazards *obs.Counter
	mDepth                                               *obs.Gauge
	mStall                                               *obs.Histogram
}

func newScheduler(e *engine, depth int) *scheduler {
	s := &scheduler{
		e:     e,
		depth: depth,
		bufs:  map[*codegen.Buffer]*pipeBuf{},
	}
	reg := e.opt.Metrics
	if reg != nil {
		s.mBufBytes = reg.Gauge("exec.buffer.bytes")
	}
	if depth == 0 {
		return s
	}
	s.comp = 1
	s.pending = map[string]*arrayIO{}
	if reg != nil {
		s.mShadow = reg.Counter("exec.pipeline.prefetch.shadow")
		s.mInplace = reg.Counter("exec.pipeline.prefetch.inplace")
		s.mWriteBehind = reg.Counter("exec.pipeline.writebehind")
		s.mBarriers = reg.Counter("exec.pipeline.barriers")
		s.mHazards = reg.Counter("exec.pipeline.hazards")
		s.mDepth = reg.Gauge("exec.pipeline.inflight.depth")
		s.mStall = reg.Histogram("exec.pipeline.barrier.stall_seconds")
	}
	return s
}

// snapshot finalizes the stats (the overlapped critical path is the later
// of the two clocks).
func (s *scheduler) snapshot() *PipelineStats {
	// Retries charged after the last unit barrier (output fetch, staging
	// of a unit-less plan) have no barrier left to fold them; reconcile
	// the residue here so the timeline never undercounts retry time.
	s.foldRetries()
	st := s.stats
	st.OverlappedSeconds = max(s.clock[0], s.clock[s.comp])
	return &st
}

// chargeRetry adds the modelled seconds of one retried attempt (backoff
// delay + repeat I/O) to the I/O clock: at once at depth 0, where the
// caller is the walking goroutine and the next span must start after the
// gap; otherwise into the account the next barrier folds, because the
// issuers must not touch the clocks.
func (s *scheduler) chargeRetry(seconds float64) {
	if s.depth == 0 {
		s.addIO(seconds)
		return
	}
	s.retryMu.Lock()
	s.retryExtra += seconds
	s.retryMu.Unlock()
}

// foldRetries moves the retry account into the I/O clock.
func (s *scheduler) foldRetries() {
	s.retryMu.Lock()
	extra := s.retryExtra
	s.retryExtra = 0
	s.retryMu.Unlock()
	if extra > 0 {
		s.addIO(extra)
	}
}

// addIO advances the I/O clock by time no span covers (retried attempts
// appear as gaps on the disk track).
func (s *scheduler) addIO(seconds float64) {
	s.clock[0] += seconds
	s.stats.IOSeconds += seconds
	s.stats.SerialSeconds += seconds
}

// place puts a step of modelled duration dur on a track's clock, after its
// dependencies, and with a tracer attached emits it as a span named
// verb+what. It returns the step's modelled end.
func (s *scheduler) place(track string, deps []dep, dur float64, verb, what string, args map[string]any) float64 {
	clk, total := &s.clock[0], &s.stats.IOSeconds
	if track == obs.TrackCompute {
		clk, total = &s.clock[s.comp], &s.stats.ComputeSeconds
	}
	start := *clk
	for _, d := range deps {
		start = max(start, d.end)
	}
	*clk = start + dur
	*total += dur
	s.stats.SerialSeconds += dur
	if tr := s.e.opt.Tracer; tr != nil {
		tr.Span(obs.Span{Track: track, Name: verb + what, Start: start, Dur: dur, Args: args})
	}
	return start + dur
}

// start launches the run's executors: the inline executor, which runs
// zero-fills, compute blocks and init passes in program order, and depth
// issuers, which take section operations in program order and perform
// them through the synchronous Array contract.
func (s *scheduler) start() {
	n := s.depth + inlineAhead
	s.ring = make([]pop, n)
	for i := range s.ring {
		op := &s.ring[i]
		op.io = op.section
	}
	s.ioq, s.inq = &queue{steps: make([]dep, n)}, &queue{steps: make([]dep, n)}
	s.idle.L, s.blocked.L = &s.mu, &s.mu
	s.execs.Add(1 + s.depth)
	go s.runInline()
	for range s.depth {
		go s.runIssuer()
	}
}

// stop shuts the executors down; every step handed off has finished (the
// last unit's barrier waited for them).
func (s *scheduler) stop() {
	if s.ring == nil {
		return
	}
	s.closed.Store(true)
	s.mu.Lock()
	s.idle.Broadcast()
	s.mu.Unlock()
	s.execs.Wait()
	s.ring, s.ioq, s.inq = nil, nil, nil
}

// newOp takes the ring slot of the run's next step, waiting for the step
// it held before to finish, and fills in the step's program-order number
// and dependencies; the caller fills in its work and hands it off.
func (s *scheduler) newOp(deps []dep) *pop {
	if s.ring == nil {
		s.start()
	}
	s.seq++
	op := &s.ring[s.seq%int64(len(s.ring))]
	s.walkerWait(dep{op: op, seq: op.seq})
	op.seq = s.seq
	op.deps = op.deps[:0]
	if !s.e.opt.DryRun { // a dry run has no data to wait for (see pendingIO)
		op.deps = append(op.deps, deps...)
	}
	return op
}

// wakeBatch is how many steps a dry run hands off before it publishes
// them to the executors and wakes those parked. Its steps cost the
// executors next to nothing, so publishing each would cost more than the
// step (the count's cache line moves between cores every time); a batch
// amortizes that and the wakeup. Data-mode steps (real compute and file
// I/O) are published at once.
const wakeBatch = 32

// queue lists the handed-off steps of one kind in program order, the k-th
// in steps[k % len(steps)]. The walker counts them in n and publishes the
// count to the executors in avail; take counts the steps issuers have
// claimed. The atomics sit on cache lines of their own: they are written
// on different cores.
type queue struct {
	steps  []dep
	n, pub int64
	_      [64]byte
	avail  atomic.Int64
	_      [56]byte
	take   atomic.Int64
	_      [56]byte
}

// handOff lists a filled slot as the next step of queue q and returns its
// dep.
func (s *scheduler) handOff(q *queue, op *pop, end float64) dep {
	slot := &q.steps[q.n%int64(len(q.steps))]
	// The step listed there before has been taken once it has finished.
	s.walkerWait(*slot)
	*slot = dep{op: op, seq: op.seq, end: end}
	q.n++
	s.unwoken++
	if !s.e.opt.DryRun || s.unwoken >= wakeBatch {
		s.publish()
	}
	return *slot
}

// publish makes the steps handed off so far visible to the executors and
// wakes those parked for want of one. An executor counts itself in nIdle
// before its last look at avail, so either it sees the new count or the
// load here sees it.
func (s *scheduler) publish() {
	s.unwoken = 0
	for _, q := range [2]*queue{s.ioq, s.inq} {
		if q.pub != q.n {
			q.pub = q.n
			q.avail.Store(q.n)
		}
	}
	if s.nIdle.Load() > 0 {
		s.mu.Lock()
		s.idle.Broadcast()
		s.mu.Unlock()
	}
}

// walkerWait is wait for the walker, which first publishes the steps it
// has handed off: they may be what it waits for.
func (s *scheduler) walkerWait(d dep) {
	if d.finished() {
		return
	}
	if s.unwoken > 0 {
		s.publish()
	}
	s.wait(d)
}

// spins is how many times a goroutine about to block yields and looks
// again first: a step it waits for is usually running, or runnable on the
// same processor, and parking and waking cost more than a few yields.
const spins = 64

// wait blocks until d has finished.
func (s *scheduler) wait(d dep) {
	for range spins {
		if d.finished() {
			return
		}
		runtime.Gosched()
	}
	s.mu.Lock()
	s.nBlocked.Add(1)
	for !d.finished() {
		s.blocked.Wait()
	}
	s.nBlocked.Add(-1)
	s.mu.Unlock()
}

// handedOff waits until the k-th step of queue q has been published and
// reports true, or reports false once the run has ended.
func (s *scheduler) handedOff(q *queue, k int64) bool {
	if q.avail.Load() > k {
		return true
	}
	s.mu.Lock()
	s.nIdle.Add(1)
	for q.avail.Load() <= k && !s.closed.Load() {
		s.idle.Wait()
	}
	s.nIdle.Add(-1)
	s.mu.Unlock()
	return q.avail.Load() > k
}

// await waits for the step's dependencies and returns the first of their
// errors: a failed dependency fails its dependents without running them.
func (s *scheduler) await(op *pop) error {
	for _, d := range op.deps {
		s.wait(d)
	}
	if !s.anyFailed.Load() {
		return nil
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	for _, d := range op.deps {
		if err := s.failed[d.seq]; err != nil {
			return err
		}
	}
	return nil
}

// complete finishes a step, recording a failure and keeping the earliest
// in program order (so a failure inherited from a dependency never
// displaces the dependency's own), and wakes whoever is parked on a step
// to finish (a waiter counts itself in nBlocked before its last look at
// done, so either it sees this store or the load here sees it).
func (s *scheduler) complete(op *pop, err error) {
	if err != nil {
		s.errMu.Lock()
		if s.failed == nil {
			s.failed = map[int64]error{}
		}
		s.failed[op.seq] = err
		if s.err == nil || op.seq < s.errSeq {
			s.err, s.errSeq = err, op.seq
		}
		s.errMu.Unlock()
		s.anyFailed.Store(true)
	}
	op.done.Store(op.seq)
	if s.nBlocked.Load() > 0 {
		s.mu.Lock()
		s.blocked.Broadcast()
		s.mu.Unlock()
	}
}

// runInline is the run's inline executor.
func (s *scheduler) runInline() {
	defer s.execs.Done()
	for k := int64(0); s.handedOff(s.inq, k); k++ {
		op := s.inq.steps[k%int64(len(s.inq.steps))].op
		err := s.await(op)
		if err == nil {
			err = op.inline()
		}
		op.inline = nil
		s.complete(op, err)
	}
}

// runIssuer is one of the run's issuers: it performs section operations
// under the run's retry policy, each after its dependencies, its failure
// attributed to array and plan position.
func (s *scheduler) runIssuer() {
	defer s.execs.Done()
	for {
		k := s.ioq.take.Add(1) - 1
		if !s.handedOff(s.ioq, k) {
			return
		}
		op := s.ioq.steps[k%int64(len(s.ioq.steps))].op
		err := s.await(op)
		if err == nil {
			if s.mDepth != nil {
				s.mDepth.Add(1)
			}
			if err = s.e.retryOp(op.array, op.dur, op.io); err != nil {
				err = ioErr(op.read, op.array, formatPos(op.where), err)
			}
			if s.mDepth != nil {
				s.mDepth.Add(-1)
			}
		}
		s.complete(op, err)
	}
}

// inline runs a zero-fill, compute block or init pass under the schedule:
// on the spot at depth 0, otherwise handed to the inline executor. The
// returned dep is zero once the step has finished.
func (s *scheduler) inline(deps []dep, end float64, fn func() error) (dep, error) {
	if s.depth == 0 {
		return dep{}, fn()
	}
	op := s.newOp(deps)
	op.inline = fn
	return s.handOff(s.inq, op, end), nil
}

// issue performs one section operation — under the run's retry policy,
// its failure attributed to array and plan position — the single place
// section I/O leaves the engine. At depth 0 it is the synchronous backend
// call, made now. Otherwise it is handed to the issuers, which wait for
// its dependencies and make the same call; a failure surfaces at the unit
// barrier. dur is the operation's modelled duration, which retried
// attempts charge again. The returned dep is zero once the operation has
// finished.
func (s *scheduler) issue(read bool, array string, lo, shape []int64, data []float64, deps []dep, end, dur float64) (dep, error) {
	arr := s.e.arrs[array]
	if s.depth == 0 {
		err := s.e.retryOp(array, dur, func() error {
			if read {
				return arr.ReadSection(lo, shape, data)
			}
			return arr.WriteSection(lo, shape, data)
		})
		if err != nil {
			return dep{}, ioErr(read, array, s.e.pos(), err)
		}
		return dep{}, nil
	}
	op := s.newOp(deps)
	op.read, op.array, op.arr, op.lo, op.shape, op.data, op.dur = read, array, arr, lo, shape, data, dur
	op.where = s.e.where(op.where[:0]) // the walker will have moved on when a failure surfaces
	return s.handOff(s.ioq, op, end), nil
}

// barrier closes a top-level work unit. If the unit handed anything off it
// waits for all of it, folds the retry account, synchronizes the two
// clocks and reports the unit's earliest failure in program order; a unit
// that ran entirely on the calling goroutine (every unit at depth 0) has
// nothing in flight and nothing to synchronize, and walkErr is its
// outcome.
func (s *scheduler) barrier(walkErr error) error {
	if s.seq == s.drained {
		return walkErr
	}
	for i := range s.ring {
		s.walkerWait(dep{op: &s.ring[i], seq: s.ring[i].seq})
	}
	s.drained = s.seq
	for _, io := range s.pending {
		clear(io.writes)
		clear(io.reads)
		io.writes, io.reads = io.writes[:0], io.reads[:0]
	}
	// The schedule charged each operation once, retries charged the
	// backend again, and the difference lives in the retry account.
	s.foldRetries()
	// Both engines are idle; the stall is the idle time the faster one
	// spends waiting.
	io, comp := s.clock[0], s.clock[1]
	stall := max(io-comp, comp-io)
	s.clock[0], s.clock[1] = max(io, comp), max(io, comp)
	s.stats.Barriers++
	if s.mBarriers != nil {
		s.mBarriers.Inc()
		s.mStall.Observe(stall)
	}
	if tr := s.e.opt.Tracer; tr != nil {
		tr.Instant(obs.Instant{Track: obs.TrackDisk, Name: "barrier", TS: s.clock[0],
			Args: map[string]any{"stall_s": stall}})
	}
	s.errMu.Lock()
	err := s.err
	s.err = nil
	clear(s.failed)
	s.errMu.Unlock()
	s.anyFailed.Store(false)
	if err != nil {
		return err
	}
	return walkErr
}

// fillSlot picks the slot a fill (read or zero) targets and binds it to
// the section: the shadow slot when the schedule overlaps and memory
// allows (so the fill can run alongside the previous instance's
// consumers), otherwise the current slot in place. shadow reports whether
// the fill flipped away from a live instance.
func (s *scheduler) fillSlot(buf *codegen.Buffer, lo, shape []int64) (slot *pslot, shadow bool) {
	if s.depth == 0 && s.e.opt.DryRun {
		// No tensor to bind and no later step to order after this one:
		// the buffer needs no instance (dry-run writes and compute blocks
		// cope with buffers that have none).
		return &s.void, false
	}
	pb := s.bufs[buf]
	if pb == nil {
		pb = &pipeBuf{}
		s.bufs[buf] = pb
	}
	n := size(shape)
	dryRun := s.e.opt.DryRun
	want := 1 - pb.cur
	if s.depth == 0 || pb.slots[pb.cur] == nil {
		want = pb.cur // nothing to overlap with, or no live instance to shadow
	} else if plan := s.e.plan; pb.slots[want] == nil && !dryRun &&
		s.curBytes+n*8 > max(plan.Cfg.MemoryLimit, plan.MemoryBytes()) {
		// No headroom for a shadow slot: reuse in place. (A plan whose
		// static footprint is over the limit is never refused; it runs
		// within that footprint.)
		want = pb.cur
	}
	shadow = want != pb.cur
	pb.cur = want
	slot = pb.slots[want]
	if slot == nil {
		slot = &pslot{}
		pb.slots[want] = slot
	}
	slot.base = lo
	if !dryRun {
		dims := make([]int, len(shape))
		for i, x := range shape {
			dims[i] = int(x)
		}
		if slot.t == nil || slot.t.Size() != int(n) {
			// A fresh tensor, never a resize in place: already-issued
			// operations keep the instance they captured at scheduling
			// time.
			if slot.t != nil {
				s.curBytes -= int64(slot.t.Size()) * 8
			}
			s.curBytes += n * 8
			s.peakBytes = max(s.peakBytes, s.curBytes)
			if s.mBufBytes != nil {
				s.mBufBytes.Set(float64(s.curBytes))
			}
			slot.t = tensor.New(dims...)
		} else {
			slot.t = slot.t.Reshape(dims...)
		}
	}
	return slot, shadow
}

// cur returns the buffer's live instance, nil before its first fill.
func (s *scheduler) cur(b *codegen.Buffer) *pslot {
	if pb := s.bufs[b]; pb != nil {
		return pb.slots[pb.cur]
	}
	return nil
}

// arrayIO is one array's outstanding disk operations, kept for section
// hazard detection: writes (init passes included) and reads apart, since a
// read only conflicts with writes.
type arrayIO struct {
	writes, reads []hazard
}

// pendingIO returns the array's outstanding operations, or nil where
// nothing is tracked: at depth 0, which has none outstanding, and in a dry
// run, which moves no data. A section hazard only orders real time — every
// section operation and init pass is on the disk track, whose clock is
// already past the end of each earlier one — so a dry run's steps, handed
// off without dependencies, have nothing to wait for.
func (s *scheduler) pendingIO(array string) *arrayIO {
	if s.depth == 0 || s.e.opt.DryRun {
		return nil
	}
	io := s.pending[array]
	if io == nil {
		io = &arrayIO{}
		s.pending[array] = io
	}
	return io
}

// conflicts appends to deps the outstanding operations of io that a new
// operation over [lo, lo+shape) must wait for — a reader conflicts with
// pending writes, a writer with everything overlapping — and returns how
// many it appended. nil lo means the whole array.
func (s *scheduler) conflicts(deps []dep, io *arrayIO, lo, shape []int64, isWrite bool) ([]dep, int) {
	if io == nil {
		return deps, 0
	}
	n := int64(len(s.ring))
	for s.oldest < s.seq && s.ring[s.oldest%n].done.Load() >= s.oldest {
		s.oldest++
	}
	n0 := len(deps)
	io.writes, deps = overlapping(deps, io.writes, lo, shape, s.oldest)
	if isWrite {
		io.reads, deps = overlapping(deps, io.reads, lo, shape, s.oldest)
	}
	return deps, len(deps) - n0
}

// overlapping appends to deps the unfinished entries of hs whose boxes
// overlap [lo, lo+shape), dropping finished entries: all those older than
// oldest (which costs a comparison), and the overlapping ones found
// finished (a look at another goroutine's completion costs a cache miss,
// so the others are not looked at).
func overlapping(deps []dep, hs []hazard, lo, shape []int64, oldest int64) ([]hazard, []dep) {
	live := 0
	for i := range hs {
		h := &hs[i]
		if h.seq < oldest {
			continue
		}
		if boxesOverlap(lo, shape, h.lo, h.shape) {
			if h.finished() {
				continue
			}
			deps = append(deps, h.dep)
		}
		if i != live {
			hs[live] = *h
		}
		live++
	}
	clear(hs[live:])
	return hs[:live], deps
}

// boxesOverlap reports hyper-rectangle intersection; a nil box spans the
// whole array.
func boxesOverlap(alo, ash, blo, bsh []int64) bool {
	if alo == nil || blo == nil {
		return true
	}
	for i := range alo {
		if alo[i]+ash[i] <= blo[i] || blo[i]+bsh[i] <= alo[i] {
			return false
		}
	}
	return true
}

// track registers an outstanding disk operation for hazard detection.
// Before a list grows it is pruned of the entries older than oldest, which
// also bounds a list nobody scans (the reads of an array never written).
func (s *scheduler) track(io *arrayIO, d dep, lo, shape []int64, write bool) {
	if io == nil || d.op == nil {
		return
	}
	hs := &io.reads
	if write {
		hs = &io.writes
	}
	if len(*hs) == cap(*hs) {
		*hs = slices.DeleteFunc(*hs, func(h hazard) bool { return h.seq < s.oldest })
	}
	*hs = append(*hs, hazard{dep: d, lo: lo, shape: shape})
}

// noteHazard marks a section-hazard wait (an operation blocked on n
// earlier conflicting disk operations) at its start time ts.
func (s *scheduler) noteHazard(array string, ts float64, n int) {
	if n == 0 {
		return
	}
	if s.mHazards != nil {
		s.mHazards.Inc()
	}
	if tr := s.e.opt.Tracer; tr != nil {
		tr.Instant(obs.Instant{Track: obs.TrackDisk, Name: "hazard " + array, TS: ts,
			Args: map[string]any{"waits_on": n}})
	}
}

// sectionOp orders one section operation after deps (the walker's
// scratch list) and after the array's outstanding operations it
// conflicts with, places it on the disk track, issues it and registers it
// for later hazards.
func (s *scheduler) sectionOp(read bool, array string, lo, shape []int64, data []float64, deps []dep, args map[string]any) (dep, error) {
	io := s.pendingIO(array)
	deps, hazards := s.conflicts(deps, io, lo, shape, !read)
	dur := s.e.ioDur(read, shape)
	verb := "W "
	if read {
		verb = "R "
	}
	end := s.place(obs.TrackDisk, deps, dur, verb, array, args)
	s.noteHazard(array, end-dur, hazards)
	d, err := s.issue(read, array, lo, shape, data, deps, end, dur)
	s.deps = deps[:0]
	s.track(io, d, lo, shape, !read)
	return d, err
}

// read fills the buffer's next slot from the section.
func (s *scheduler) read(n *codegen.IO, lo, shape []int64) error {
	slot, shadow := s.fillSlot(n.Buffer, lo, shape)
	if shadow {
		s.stats.PrefetchedReads++
		if s.mShadow != nil {
			s.mShadow.Inc()
		}
	} else if s.mInplace != nil {
		s.mInplace.Inc()
	}
	var args map[string]any
	if s.e.opt.Tracer != nil {
		args = map[string]any{"bytes": size(shape) * 8, "shadow": shadow}
	}
	var data []float64
	if slot.t != nil {
		data = slot.t.Data()
	}
	d, err := s.sectionOp(true, n.Array, lo, shape, data, slot.appendDeps(s.deps[:0]), args)
	slot.refill(d)
	return err
}

// write retires the buffer's live instance to disk: the section it was
// bound at, not the walker's current one. Dry-run plans skip zero-fills,
// so a dry-run write may target a buffer with no instance; the walker's
// section stands in.
func (s *scheduler) write(n *codegen.IO, lo, shape []int64) error {
	slot := s.cur(n.Buffer)
	deps := s.deps[:0]
	var data []float64
	if slot != nil {
		if slot.t != nil {
			lo, shape, data = slot.base, dimsToInt64(slot.t.Dims()), slot.t.Data()
		}
		deps = slot.appendDeps(deps)
	} else if !s.e.opt.DryRun {
		return ioErr(false, n.Array, s.e.pos(), fmt.Errorf("write of uninstantiated buffer %q", n.Buffer.Name))
	}
	s.stats.WriteBehindWrites++
	if s.mWriteBehind != nil {
		s.mWriteBehind.Inc()
	}
	var args map[string]any
	if s.e.opt.Tracer != nil {
		args = map[string]any{"bytes": size(shape) * 8}
	}
	d, err := s.sectionOp(false, n.Array, lo, shape, data, deps, args)
	if slot != nil && d.op != nil {
		slot.use(d)
	}
	return err
}

// zero fills the buffer's next slot with zeros (data mode only).
func (s *scheduler) zero(buf *codegen.Buffer, lo, shape []int64) error {
	slot, _ := s.fillSlot(buf, lo, shape)
	deps := slot.appendDeps(s.deps[:0])
	end := s.place(obs.TrackCompute, deps, 0, "zero ", buf.Name, nil)
	t := slot.t // captured: a later fill re-binds the slot, not this tensor
	d, err := s.inline(deps, end, func() error {
		t.Zero()
		return nil
	})
	s.deps = deps[:0]
	slot.refill(d)
	return err
}

// init zero-fills a whole disk array, tile by tile; its span is the closed
// form of the writes the pass will charge.
func (s *scheduler) init(array string) error {
	da, tiles := s.e.initTiles(array)
	if da == nil {
		return fmt.Errorf("exec: init pass over %q: exec: init pass for unknown disk array %q", array, array)
	}
	bytes, writes := size(da.Dims)*8, int64(1)
	for i, t := range tiles {
		writes *= (da.Dims[i] + t - 1) / t
	}
	io := s.pendingIO(array)
	deps, _ := s.conflicts(s.deps[:0], io, nil, nil, true)
	var args map[string]any
	if s.e.opt.Tracer != nil {
		args = map[string]any{"bytes": bytes, "writes": writes}
	}
	end := s.place(obs.TrackDisk, deps, s.e.plan.Cfg.Disk.WriteTime(bytes, writes), "init ", array, args)
	d, err := s.inline(deps, end, func() error {
		if err := s.e.initPass(da, tiles); err != nil {
			return fmt.Errorf("exec: init pass over %q: %w", array, err)
		}
		return nil
	})
	s.deps = deps[:0]
	s.track(io, d, nil, nil, true)
	return err
}

// compute binds a compute block to the live buffer instances and runs it
// after their producers. In data mode a missing instance is a plan error;
// in dry-run mode the block is timeline-only and missing instances simply
// contribute no dependencies. At depth 0 the block is bound in the kernel's
// own scratch and run on the spot, allocating nothing; a queued block runs
// after the walker has moved on, so it owns its Block.
func (s *scheduler) compute(c *codegen.Compute) error {
	e := s.e
	dryRun := e.opt.DryRun
	k := e.kernels[c]
	blk := k.block(s.depth > 0 && !dryRun)
	k.clip(blk, e)
	outSlot := s.cur(c.Out)
	deps := s.deps[:0]
	if outSlot != nil {
		deps = outSlot.appendDeps(deps)
		if !dryRun {
			k.bind(blk, 0, e.base, outSlot.binding)
		}
	} else if !dryRun {
		return fmt.Errorf("exec: compute into uninstantiated buffer %q at %s", c.Out.Name, e.pos())
	}
	for i, f := range c.Factors {
		slot := s.cur(f)
		if slot == nil {
			if !dryRun {
				return fmt.Errorf("exec: compute reads uninstantiated buffer %q at %s", f.Name, e.pos())
			}
			continue
		}
		if slot.filler != (dep{}) {
			deps = append(deps, slot.filler)
		}
		if !dryRun {
			k.bind(blk, i+1, e.base, slot.binding)
		}
	}
	end := s.place(obs.TrackCompute, deps, e.computeSeconds(k, blk), "compute ", c.Out.Name, nil)
	var d dep
	var err error
	switch {
	case dryRun:
		// A dry-run block has no work, so it is never handed off: it is a
		// step of the modelled timeline only, which later steps order after.
		// In real time there is no data to wait for.
		if s.depth > 0 {
			d = dep{end: end}
		}
	case s.depth == 0:
		k.con.Run(blk, e.opt.Workers) // not through inline: a closure over blk would allocate
	default:
		d, err = s.inline(deps, end, func() error {
			k.con.Run(blk, e.opt.Workers)
			return nil
		})
	}
	s.deps = deps[:0]
	if d != (dep{}) {
		for _, f := range c.Factors {
			if slot := s.cur(f); slot != nil {
				slot.use(d)
			}
		}
	}
	if outSlot != nil {
		// The block mutates the output instance: it becomes the contents'
		// producer.
		outSlot.refill(d)
	}
	return err
}
