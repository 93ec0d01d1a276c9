package exec

// This file is the engine's scheduler. The walker (exec.go) hands it one
// lowered step at a time, in program order with its section resolved; for
// each step the scheduler binds buffer slots, places it on the modelled
// timeline, emits its span and runs it on the calling goroutine. Every
// run executes the same way: no goroutine is started, section I/O goes to
// the backend in program order through the synchronous Array contract,
// and the walk stops at the first failed operation.
//
// What Options.Pipeline changes is the model, not the execution. A serial
// run keeps one modelled clock, advanced by every span. A pipelined run
// keeps two — the I/O channel's and the compute engine's — and places
// each step at max(its track's clock, the modelled ends of the steps it
// depends on), the overlapped timeline the machine's cost model credits to
// double buffering:
//
//   - double-buffered slots: every plan buffer owns up to two instances,
//     so the next tile's read fills the shadow slot and on the model only
//     waits for that slot's earlier consumers, not the current one's.
//     The memory limit (the larger of the machine's and the plan's static
//     footprint) gates only the creation of a shadow slot in a data run:
//     if the new instance would take live buffer bytes over it, the fill
//     reuses the current slot in place and waits for everything still
//     using it. A shadow slot once created stays and is re-sized per tile
//     without a check, so the data run's peak can pass the limit. A dry
//     run binds no tensors and never checks, so every fill after a
//     buffer's first flips slots and it can count more prefetches than
//     the data run. Two-index 12/16 at tiles i4 j4 m6 n8 under
//     machine.Small(1216), whose plan needs 1 216 B: the data run makes
//     75 prefetches and peaks at 1 792 B, the dry run makes 92.
//   - per-slot modelled ends: a slot records the end of the step that
//     filled it and the latest end of the steps that used it since; a
//     fill waits for both, a use for the fill.
//   - unit barriers: the two clocks meet at every top-level work-unit
//     boundary, where StopAfter/Resume checkpoints are taken.
//
// Section operations need no ordering of their own: every section
// operation and init pass sits on the disk track, whose clock is already
// past the end of each earlier one. OverlappedSeconds is the resulting
// critical path, SerialSeconds the plain sum every step would cost back to
// back — the Table 3 style serial-vs-overlapped comparison.

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/tensor"
)

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
	// PrefetchedReads counts reads placed into a shadow slot while the
	// previous instance of the buffer was still live.
	PrefetchedReads int64
	// WriteBehindWrites counts writes, each placed on the disk track behind
	// the compute that produced its buffer.
	WriteBehindWrites int64
	// Barriers counts top-level work-unit boundaries (at each the two
	// clocks meet).
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

// binding is a buffer instance: its tensor (nil in dry-run mode) and the
// tile base per buffer dim it was bound at, in the slot's own storage.
type binding struct {
	t    *tensor.Tensor
	base []int64
}

// pslot is one instance of a double-buffered plan buffer: its binding,
// the modelled end of the step that produced its contents, and the latest
// modelled end of the steps that consumed them since.
type pslot struct {
	binding
	fillEnd, usersEnd float64
}

// free is when the slot's current contents are done with: a new fill, or
// a step mutating them, starts no earlier.
func (sl *pslot) free() float64 { return max(sl.fillEnd, sl.usersEnd) }

// use records a consumer of the slot's current contents ending at end.
func (sl *pslot) use(end float64) { sl.usersEnd = max(sl.usersEnd, end) }

// refill makes a step ending at end the producer of the slot's contents.
func (sl *pslot) refill(end float64) { sl.fillEnd, sl.usersEnd = end, 0 }

// pipeBuf is the double-buffer state of one plan buffer; a slot exists
// from its first fill on.
type pipeBuf struct {
	slots [2]*pslot
	cur   int
}

// scheduler is the run's schedule state.
type scheduler struct {
	e *engine
	// void absorbs the fills of a serial dry run (see fillSlot).
	void pslot
	// curBytes/peakBytes track instantiated buffer memory; mBufBytes
	// mirrors curBytes into the metrics registry (nil without
	// Options.Metrics), its high-water mark being the peak watermark.
	curBytes, peakBytes int64
	mBufBytes           *obs.Gauge

	// clock[0] is the I/O channel's modelled clock, clock[comp] the compute
	// engine's. Serially comp is 0: one clock, advanced by every span.
	clock [2]float64
	comp  int
	stats PipelineStats
	// worked reports whether the current unit has run a step with real
	// work: a section operation or init pass, or in data mode a zero-fill
	// or compute block. A unit without one (a dry run's lone compute block)
	// closes without a barrier.
	worked bool

	// Cached metrics instruments (nil without Options.Metrics, and in a
	// serial run, which has no pipeline to report on).
	mShadow, mInplace, mWriteBehind, mBarriers *obs.Counter
	mStall                                     *obs.Histogram
	// keys holds the tracer's interned strings (nil without Options.Tracer).
	keys *traceKeys
}

// traceKeys are the tracer's keys for the scheduler's tracks and
// arguments, each interned once per run; each step holds its span name's.
type traceKeys struct {
	tr                                                   *obs.Tracer
	disk, compute, barrier, bytes, shadow, writes, stall obs.Key
}

func newTraceKeys(tr *obs.Tracer) *traceKeys {
	return &traceKeys{tr: tr, disk: tr.Key(obs.TrackDisk), compute: tr.Key(obs.TrackCompute),
		barrier: tr.Key("barrier"), bytes: tr.Key("bytes"), shadow: tr.Key("shadow"),
		writes: tr.Key("writes"), stall: tr.Key("stall_s")}
}

// span interns the span name verb + what (0 without a tracer).
func (s *scheduler) span(verb, what string) obs.Key {
	if s.keys == nil {
		return 0
	}
	return s.keys.tr.Key(verb + what)
}

// ioVerb is a section operation's span-name prefix.
func ioVerb(read bool) string {
	if read {
		return "R "
	}
	return "W "
}

func newScheduler(e *engine) *scheduler {
	reg := e.opt.Metrics
	s := &scheduler{e: e, mBufBytes: reg.Gauge("exec.buffer.bytes")}
	if tr := e.opt.Tracer; tr != nil {
		s.keys = newTraceKeys(tr)
	}
	if !e.opt.Pipeline {
		return s
	}
	s.comp = 1
	s.mShadow = reg.Counter("exec.pipeline.prefetch.shadow")
	s.mInplace = reg.Counter("exec.pipeline.prefetch.inplace")
	s.mWriteBehind = reg.Counter("exec.pipeline.writebehind")
	s.mBarriers = reg.Counter("exec.pipeline.barriers")
	s.mStall = reg.Histogram("exec.pipeline.barrier.stall_seconds")
	return s
}

// snapshot finalizes the stats (the overlapped critical path is the later
// of the two clocks).
func (s *scheduler) snapshot() *PipelineStats {
	st := s.stats
	st.OverlappedSeconds = max(s.clock[0], s.clock[s.comp])
	return &st
}

// addIO advances the I/O clock by time no span covers: a retried attempt
// and its backoff delay, charged as they happen, appear as gaps on the
// disk track.
func (s *scheduler) addIO(seconds float64) {
	s.clock[0] += seconds
	s.stats.IOSeconds += seconds
	s.stats.SerialSeconds += seconds
}

// place puts a step of modelled duration dur on the disk or compute
// track's clock, no earlier than after, and with a tracer attached emits
// it as a span named name. It returns the step's modelled end.
func (s *scheduler) place(compute bool, after, dur float64, name obs.Key, args ...obs.Arg) float64 {
	clk, total := &s.clock[0], &s.stats.IOSeconds
	if compute {
		clk, total = &s.clock[s.comp], &s.stats.ComputeSeconds
	}
	start := max(*clk, after)
	*clk = start + dur
	*total += dur
	s.stats.SerialSeconds += dur
	if k := s.keys; k != nil {
		track := k.disk
		if compute {
			track = k.compute
		}
		k.tr.Record(track, name, start, dur, args...)
	}
	return start + dur
}

// barrier closes a top-level work unit: in a pipelined run that did real
// work it synchronizes the two clocks, the faster engine's idle time being
// the unit's stall. walkErr is the unit's outcome.
func (s *scheduler) barrier(walkErr error) error {
	if s.comp == 0 || !s.worked {
		return walkErr
	}
	s.worked = false
	io, comp := s.clock[0], s.clock[1]
	stall := max(io-comp, comp-io)
	s.clock[0], s.clock[1] = max(io, comp), max(io, comp)
	s.stats.Barriers++
	s.mBarriers.Inc()
	s.mStall.Observe(stall)
	if k := s.keys; k != nil {
		k.tr.Mark(k.disk, k.barrier, s.clock[0], obs.Float(k.stall, stall))
	}
	return walkErr
}

// fillSlot picks the slot a fill (read or zero) targets and binds it to
// the section: the shadow slot when the schedule overlaps and memory
// allows (so the fill need not wait for the previous instance's
// consumers), otherwise the current slot in place. shadow reports whether
// the fill flipped away from a live instance.
func (s *scheduler) fillSlot(sc *sect) (slot *pslot, shadow bool) {
	if s.comp == 0 && s.e.opt.DryRun {
		// No tensor to bind and no overlap to model: the buffer needs no
		// instance (dry-run writes and compute blocks cope with buffers
		// that have none).
		return &s.void, false
	}
	pb := sc.pb
	n := size(sc.shape)
	dryRun := s.e.opt.DryRun
	want := 1 - pb.cur
	if s.comp == 0 || pb.slots[pb.cur] == nil {
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
		slot = &pslot{binding: binding{base: make([]int64, len(sc.lo))}}
		pb.slots[want] = slot
	}
	copy(slot.base, sc.lo)
	if !dryRun {
		for i, x := range sc.shape {
			sc.ext[i] = int(x)
		}
		if slot.t == nil || slot.t.Size() != int(n) {
			if slot.t != nil {
				s.curBytes -= int64(slot.t.Size()) * 8
			}
			s.curBytes += n * 8
			s.peakBytes = max(s.peakBytes, s.curBytes)
			s.mBufBytes.Set(float64(s.curBytes))
			slot.t = tensor.New(sc.ext...)
		} else {
			slot.t = slot.t.Reshape(sc.ext...)
		}
	}
	return slot, shadow
}

// sectionOp places the step's section operation on lo/shape on the disk
// track no earlier than after and performs it — under the array's retry
// policy, its failure attributed to array and plan position — the single
// place section I/O leaves the engine. It returns the operation's
// modelled end.
func (s *scheduler) sectionOp(st *ioStep, lo, shape []int64, data []float64, after float64, args ...obs.Arg) (float64, error) {
	read := st.n.Read
	dur := s.e.ioDur(read, shape)
	end := s.place(false, after, dur, st.span, args...)
	s.worked = true
	if st.arr == nil {
		st.ioTarget = s.e.target(st.n.Array)
	}
	if err := s.e.retryOp(&st.ioTarget, read, lo, shape, data, dur); err != nil {
		return end, ioErr(read, st.n.Array, s.e.pos(), err)
	}
	return end, nil
}

// read fills the buffer's next slot from the section.
func (s *scheduler) read(st *ioStep) error {
	slot, shadow := s.fillSlot(&st.sect)
	if shadow {
		s.stats.PrefetchedReads++
		s.mShadow.Inc()
	} else {
		s.mInplace.Inc()
	}
	var args []obs.Arg
	if k := s.keys; k != nil {
		args = []obs.Arg{obs.Int(k.bytes, size(st.shape)*8), obs.Bool(k.shadow, shadow)}
	}
	var data []float64
	if slot.t != nil {
		data = slot.t.Data()
	}
	end, err := s.sectionOp(st, st.lo, st.shape, data, slot.free(), args...)
	slot.refill(end)
	return err
}

// write retires the buffer's live instance to disk: the section it was
// bound at, not the walker's current one. Dry-run plans skip zero-fills,
// so a dry-run write may target a buffer with no instance; the walker's
// section stands in.
func (s *scheduler) write(st *ioStep) error {
	slot := st.pb.slots[st.pb.cur]
	lo, shape := st.lo, st.shape
	after := 0.0
	var data []float64
	if slot != nil {
		if slot.t != nil {
			for i := range shape {
				shape[i] = int64(slot.t.Dim(i))
			}
			lo, data = slot.base, slot.t.Data()
		}
		after = slot.free()
	} else if !s.e.opt.DryRun {
		return ioErr(false, st.n.Array, s.e.pos(), fmt.Errorf("write of uninstantiated buffer %q", st.n.Buffer.Name))
	}
	s.stats.WriteBehindWrites++
	s.mWriteBehind.Inc()
	var args []obs.Arg
	if k := s.keys; k != nil {
		args = []obs.Arg{obs.Int(k.bytes, size(shape)*8)}
	}
	end, err := s.sectionOp(st, lo, shape, data, after, args...)
	if slot != nil {
		slot.use(end)
	}
	return err
}

// zero fills the buffer's next slot with zeros (data mode only).
func (s *scheduler) zero(st *zeroStep) error {
	slot, _ := s.fillSlot(&st.sect)
	end := s.place(true, slot.free(), 0, st.span)
	s.worked = true
	slot.t.Zero()
	slot.refill(end)
	return nil
}

// init zero-fills a whole disk array, tile by tile; its span is the closed
// form of the writes the pass will charge.
func (s *scheduler) init(st *initStep) error {
	da := st.da
	if da == nil {
		return fmt.Errorf("exec: init pass over unknown disk array %q", st.array)
	}
	bytes, writes := size(da.Dims)*8, int64(1)
	for i, t := range st.tiles {
		writes *= (da.Dims[i] + t - 1) / t
	}
	var args []obs.Arg
	if k := s.keys; k != nil {
		args = []obs.Arg{obs.Int(k.bytes, bytes), obs.Int(k.writes, writes)}
	}
	s.place(false, 0, s.e.plan.Cfg.Disk.WriteTime(bytes, writes), st.span, args...)
	s.worked = true
	if err := s.e.initPass(st); err != nil {
		return fmt.Errorf("exec: init pass over %q: %w", st.array, err)
	}
	return nil
}

// compute binds a compute block to the live buffer instances, places it
// after their producers (and the output's earlier consumers) and runs it
// in the kernel's own Block, allocating nothing. In data mode a missing
// instance is a plan error; in dry-run mode the block is timeline-only and
// missing instances simply contribute no dependencies.
func (s *scheduler) compute(k *kernel) error {
	e := s.e
	dryRun := e.opt.DryRun
	c, blk := k.c, k.blk
	k.clip(blk, e)
	after := 0.0
	for r := range k.slots {
		slot := k.slot(r)
		k.slots[r] = slot
		if slot == nil {
			if dryRun {
				continue
			}
			if r == 0 {
				return fmt.Errorf("exec: compute into uninstantiated buffer %q at %s", c.Out.Name, e.pos())
			}
			return fmt.Errorf("exec: compute reads uninstantiated buffer %q at %s", c.Factors[r-1].Name, e.pos())
		}
		if r == 0 {
			after = slot.free()
		} else {
			after = max(after, slot.fillEnd)
		}
		if !dryRun {
			k.bind(blk, r, e, slot.binding)
		}
	}
	end := s.place(true, after, e.computeSeconds(k, blk), k.span)
	if !dryRun {
		s.worked = true
		k.con.Run(blk, e.opt.Workers)
	}
	for _, slot := range k.slots[1:] {
		if slot != nil {
			slot.use(end)
		}
	}
	if slot := k.slots[0]; slot != nil {
		// The block mutates the output instance: it becomes the contents'
		// producer.
		slot.refill(end)
	}
	return nil
}
