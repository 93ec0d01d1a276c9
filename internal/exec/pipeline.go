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
// Depth d > 0 is the asynchronous double-buffered schedule: up to d disk
// operations are in flight on their own goroutines while zero-fills,
// compute blocks and init passes run in program order on the unit's
// inline executor. Three mechanisms keep results bit-identical to depth 0:
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
	"sync"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// defaultPipelineDepth bounds in-flight asynchronous disk operations when
// Options.PipelineDepth is zero: enough for a prefetch and a couple of
// write-behinds without flooding the backend.
const defaultPipelineDepth = 4

// inlineAhead bounds how many inline steps (zero, compute, init) the
// walker may schedule ahead of their execution. It only has to be large
// enough for the walker to reach the next tile's reads while the current
// tile's compute blocks are still queued; being a constant, it keeps the
// memory a unit holds independent of the unit's length.
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

// pop is a scheduled operation that may still be in flight while later
// steps are scheduled. Depth 0 never creates one: a nil *pop stands for an
// operation that has already finished, in real and in modelled time.
type pop struct {
	// seq is the operation's program-order number within the run.
	seq int64
	// deps are the earlier operations this one must wait for; the
	// executing goroutine drops them once they have finished.
	deps []*pop
	done chan struct{}
	err  error
	// inline is non-nil for steps executed in program order on the unit's
	// inline executor (zero, compute, init pass); disk I/O runs on its own
	// goroutine.
	inline func() error
	// end is the modelled completion time on the timeline.
	end float64
	// lo/shape is the disk section for hazard tracking (nil lo on an init
	// pass: the whole array); write marks disk-mutating operations.
	lo, shape []int64
	write     bool
}

// await blocks until the operation's dependencies have finished and
// returns the first of their errors: a failed dependency fails its
// dependents without running them.
func (op *pop) await() error {
	var err error
	for _, d := range op.deps {
		<-d.done
		if d.err != nil && err == nil {
			err = d.err
		}
	}
	// Finished dependencies are of no further use; holding them would keep
	// every earlier operation of the unit reachable.
	op.deps = nil
	return err
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
	// filler is the last operation producing the slot's contents; users
	// are the operations consuming them since then.
	filler *pop
	users  []*pop
}

// deps returns every operation still tied to the slot's current contents.
func (sl *pslot) deps() []*pop {
	var deps []*pop
	if sl.filler != nil {
		deps = append(deps, sl.filler)
	}
	return append(deps, sl.users...)
}

// pipeBuf is the double-buffer state of one plan buffer; a slot exists
// from its first fill on.
type pipeBuf struct {
	slots [2]*pslot
	cur   int
}

// scheduler is the run's schedule state. All fields are owned by the
// walking goroutine; executing goroutines touch only operation payloads,
// the retry account and the error record (each behind its mutex), and the
// barrier join orders everything else.
type scheduler struct {
	e *engine
	// depth bounds in-flight disk operations; 0 is the serial schedule.
	depth int
	sem   chan struct{}
	bufs  map[*codegen.Buffer]*pipeBuf
	// pending tracks outstanding disk operations per array for section
	// hazard detection; completed entries are pruned on the fly.
	pending map[string][]*pop
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
	// attempts and their backoff delays charged from issue goroutines; the
	// unit barrier folds them into the I/O clock, keeping the overlapped
	// timeline consistent with the backend's per-attempt Stats charges.
	retryMu    sync.Mutex
	retryExtra float64

	// The unit's in-flight machinery, started by the first operation a
	// unit hands off and torn down by its barrier: inlineQ feeds the inline
	// executor, inflight counts issued disk operations.
	inlineQ    chan *pop
	inlineDone chan struct{}
	inflight   sync.WaitGroup
	seq        int64
	// errMu guards the unit's earliest failure in program order.
	errMu  sync.Mutex
	err    error
	errSeq int64

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
	s.sem = make(chan struct{}, depth)
	s.pending = map[string][]*pop{}
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
// gap; otherwise into the account the next barrier folds, because issue
// goroutines must not touch the clocks.
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
func (s *scheduler) place(track string, deps []*pop, dur float64, verb, what string, args map[string]any) float64 {
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

// newOp records a step that is handed off rather than run on the spot,
// starting the unit's inline executor if this is the unit's first.
func (s *scheduler) newOp(deps []*pop, end float64) *pop {
	if s.inlineQ == nil {
		s.inlineQ = make(chan *pop, inlineAhead)
		s.inlineDone = make(chan struct{})
		go s.runInline(s.inlineQ, s.inlineDone)
	}
	s.seq++
	return &pop{seq: s.seq, deps: deps, end: end, done: make(chan struct{})}
}

// runInline is the unit's inline executor: it runs zero-fills, compute
// blocks and init passes in program order, each after its dependencies.
func (s *scheduler) runInline(q <-chan *pop, done chan<- struct{}) {
	defer close(done)
	for op := range q {
		err := op.await()
		if err == nil {
			err = op.inline()
		}
		op.inline = nil
		s.complete(op, err)
	}
}

// complete resolves an operation, recording a failure if it is the
// earliest in program order so far (so a failure inherited from a
// dependency never displaces the dependency's own).
func (s *scheduler) complete(op *pop, err error) {
	if err != nil {
		s.errMu.Lock()
		if s.err == nil || op.seq < s.errSeq {
			s.err, s.errSeq = err, op.seq
		}
		s.errMu.Unlock()
	}
	op.err = err
	close(op.done)
}

// inline runs a zero-fill, compute block or init pass under the schedule:
// on the spot at depth 0, otherwise queued for the inline executor. The
// returned op is nil once the step has finished.
func (s *scheduler) inline(deps []*pop, end float64, fn func() error) (*pop, error) {
	if s.depth == 0 {
		return nil, fn()
	}
	op := s.newOp(deps, end)
	op.inline = fn
	s.inlineQ <- op
	return op, nil
}

// issue performs one section operation — under the run's retry policy,
// its failure attributed to array and plan position — the single place
// section I/O leaves the engine. At depth 0 it is the synchronous backend
// call, made now. Otherwise the operation gets its own goroutine, which
// waits for the hazards and then drives the asynchronous contract; the
// in-flight semaphore is taken here, on the walking goroutine, bounding
// how far issue runs ahead, and a failure surfaces at the unit barrier.
// dur is the operation's modelled duration, which retried attempts charge
// again. The returned op is nil once the operation has finished.
func (s *scheduler) issue(read bool, array string, lo, shape []int64, data []float64, deps []*pop, end, dur float64) (*pop, error) {
	if s.depth == 0 {
		arr := s.e.arrs[array]
		err := s.e.retryOp(array, dur, func() error {
			if read {
				return arr.ReadSection(lo, shape, data)
			}
			return arr.WriteSection(lo, shape, data)
		})
		if err != nil {
			return nil, ioErr(read, array, s.e.pos(), err)
		}
		return nil, nil
	}
	op := s.newOp(deps, end)
	aa := disk.AsAsync(s.e.arrs[array])
	where := s.e.where() // the walker will have moved on when a failure surfaces
	s.sem <- struct{}{}
	s.inflight.Add(1)
	if s.mDepth != nil {
		s.mDepth.Add(1)
	}
	go func() {
		defer func() {
			<-s.sem
			if s.mDepth != nil {
				s.mDepth.Add(-1)
			}
			s.inflight.Done()
		}()
		err := op.await()
		if err == nil {
			err = s.e.retryOp(array, dur, func() error {
				if read {
					return aa.ReadAsync(lo, shape, data).Await()
				}
				return aa.WriteAsync(lo, shape, data).Await()
			})
			if err != nil {
				err = ioErr(read, array, formatPos(where), err)
			}
		}
		s.complete(op, err)
	}()
	return op, nil
}

// barrier closes a top-level work unit. If the unit handed anything off it
// drains it, folds the retry account, synchronizes the two clocks and
// reports the unit's earliest failure in program order; a unit that ran
// entirely on the calling goroutine (every unit at depth 0) has nothing in
// flight and nothing to synchronize, and walkErr is its outcome.
func (s *scheduler) barrier(walkErr error) error {
	if s.inlineQ == nil {
		return walkErr
	}
	close(s.inlineQ)
	<-s.inlineDone
	s.inflight.Wait()
	s.inlineQ = nil
	clear(s.pending)
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
	if err := s.err; err != nil {
		s.err = nil
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

// conflicts returns the outstanding operations on an array that a new
// operation over [lo, lo+shape) must wait for: a reader conflicts with
// pending writes, a writer with everything overlapping. Completed entries
// are pruned in passing. nil lo means the whole array.
func (s *scheduler) conflicts(array string, lo, shape []int64, isWrite bool) []*pop {
	ops := s.pending[array]
	if len(ops) == 0 {
		return nil
	}
	var out []*pop
	live := ops[:0]
	for _, op := range ops {
		select {
		case <-op.done:
			continue
		default:
		}
		live = append(live, op)
		if (isWrite || op.write) && boxesOverlap(lo, shape, op.lo, op.shape) {
			out = append(out, op)
		}
	}
	clear(ops[len(live):])
	s.pending[array] = live
	return out
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
func (s *scheduler) track(array string, op *pop, lo, shape []int64, write bool) {
	if op == nil {
		return
	}
	op.lo, op.shape, op.write = lo, shape, write
	s.pending[array] = append(s.pending[array], op)
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

// sectionOp orders one section operation after deps and after the array's
// outstanding operations it conflicts with, places it on the disk track,
// issues it and registers it for later hazards.
func (s *scheduler) sectionOp(read bool, array string, lo, shape []int64, data []float64, deps []*pop, args map[string]any) (*pop, error) {
	hazards := s.conflicts(array, lo, shape, !read)
	deps = append(deps, hazards...)
	dur := s.e.ioDur(read, shape)
	verb := "W "
	if read {
		verb = "R "
	}
	end := s.place(obs.TrackDisk, deps, dur, verb, array, args)
	s.noteHazard(array, end-dur, len(hazards))
	op, err := s.issue(read, array, lo, shape, data, deps, end, dur)
	s.track(array, op, lo, shape, !read)
	return op, err
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
	op, err := s.sectionOp(true, n.Array, lo, shape, data, slot.deps(), args)
	slot.filler, slot.users = op, nil // the waited-for users are spent
	return err
}

// write retires the buffer's live instance to disk: the section it was
// bound at, not the walker's current one. Dry-run plans skip zero-fills,
// so a dry-run write may target a buffer with no instance; the walker's
// section stands in.
func (s *scheduler) write(n *codegen.IO, lo, shape []int64) error {
	slot := s.cur(n.Buffer)
	var deps []*pop
	var data []float64
	if slot != nil {
		if slot.t != nil {
			lo, shape, data = slot.base, dimsToInt64(slot.t.Dims()), slot.t.Data()
		}
		deps = slot.deps()
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
	op, err := s.sectionOp(false, n.Array, lo, shape, data, deps, args)
	if slot != nil && op != nil {
		slot.users = append(slot.users, op)
	}
	return err
}

// zero fills the buffer's next slot with zeros (data mode only).
func (s *scheduler) zero(buf *codegen.Buffer, lo, shape []int64) error {
	slot, _ := s.fillSlot(buf, lo, shape)
	deps := slot.deps()
	end := s.place(obs.TrackCompute, deps, 0, "zero ", buf.Name, nil)
	t := slot.t // captured: a later fill re-binds the slot, not this tensor
	op, err := s.inline(deps, end, func() error {
		t.Zero()
		return nil
	})
	slot.filler, slot.users = op, nil
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
	deps := s.conflicts(array, nil, nil, true)
	var args map[string]any
	if s.e.opt.Tracer != nil {
		args = map[string]any{"bytes": bytes, "writes": writes}
	}
	end := s.place(obs.TrackDisk, deps, s.e.plan.Cfg.Disk.WriteTime(bytes, writes), "init ", array, args)
	op, err := s.inline(deps, end, func() error {
		if err := s.e.initPass(da, tiles); err != nil {
			return fmt.Errorf("exec: init pass over %q: %w", array, err)
		}
		return nil
	})
	s.track(array, op, nil, nil, true)
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
	k.clip(blk, e.base)
	outSlot := s.cur(c.Out)
	var deps []*pop
	if outSlot != nil {
		deps = outSlot.deps()
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
		if slot.filler != nil {
			deps = append(deps, slot.filler)
		}
		if !dryRun {
			k.bind(blk, i+1, e.base, slot.binding)
		}
	}
	end := s.place(obs.TrackCompute, deps, e.computeSeconds(k, blk), "compute ", c.Out.Name, nil)
	var op *pop
	var err error
	switch {
	case dryRun:
		op, err = s.inline(deps, end, func() error { return nil })
	case s.depth == 0:
		k.con.Run(blk, e.opt.Workers) // not through inline: a closure over blk would allocate
	default:
		op, err = s.inline(deps, end, func() error {
			k.con.Run(blk, e.opt.Workers)
			return nil
		})
	}
	for _, f := range c.Factors {
		if slot := s.cur(f); slot != nil && op != nil {
			slot.users = append(slot.users, op)
		}
	}
	if outSlot != nil {
		// The block mutates the output instance: it becomes the contents'
		// producer.
		outSlot.filler, outSlot.users = op, nil
	}
	return err
}
