package exec

// This file is the engine's scheduler. The walker (exec.go) hands it one
// step at a time, in program order with loop bases resolved; for each step
// the scheduler binds buffer slots, places it on the modelled timeline,
// emits its span and runs it on the calling goroutine. Every run executes
// the same way: no goroutine is started, section I/O goes to the backend
// in program order through the synchronous Array contract, and the walk
// stops at the first failed operation.
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
//     waits for that slot's earlier consumers, not the current one's. The
//     shadow slot is only allocated while total buffer memory stays within
//     the machine's limit; under memory pressure the fill reuses the slot
//     in place and waits for everything still using it.
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

	"repro/internal/codegen"
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
// tile base per buffer dim it was bound at.
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
	e    *engine
	bufs map[*codegen.Buffer]*pipeBuf
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
}

func newScheduler(e *engine) *scheduler {
	s := &scheduler{e: e, bufs: map[*codegen.Buffer]*pipeBuf{}}
	reg := e.opt.Metrics
	if reg != nil {
		s.mBufBytes = reg.Gauge("exec.buffer.bytes")
	}
	if !e.opt.Pipeline {
		return s
	}
	s.comp = 1
	if reg != nil {
		s.mShadow = reg.Counter("exec.pipeline.prefetch.shadow")
		s.mInplace = reg.Counter("exec.pipeline.prefetch.inplace")
		s.mWriteBehind = reg.Counter("exec.pipeline.writebehind")
		s.mBarriers = reg.Counter("exec.pipeline.barriers")
		s.mStall = reg.Histogram("exec.pipeline.barrier.stall_seconds")
	}
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

// place puts a step of modelled duration dur on a track's clock, no
// earlier than after, and with a tracer attached emits it as a span named
// verb+what. It returns the step's modelled end.
func (s *scheduler) place(track string, after, dur float64, verb, what string, args map[string]any) float64 {
	clk, total := &s.clock[0], &s.stats.IOSeconds
	if track == obs.TrackCompute {
		clk, total = &s.clock[s.comp], &s.stats.ComputeSeconds
	}
	start := max(*clk, after)
	*clk = start + dur
	*total += dur
	s.stats.SerialSeconds += dur
	if tr := s.e.opt.Tracer; tr != nil {
		tr.Span(obs.Span{Track: track, Name: verb + what, Start: start, Dur: dur, Args: args})
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
	if s.mBarriers != nil {
		s.mBarriers.Inc()
		s.mStall.Observe(stall)
	}
	if tr := s.e.opt.Tracer; tr != nil {
		tr.Instant(obs.Instant{Track: obs.TrackDisk, Name: "barrier", TS: s.clock[0],
			Args: map[string]any{"stall_s": stall}})
	}
	return walkErr
}

// fillSlot picks the slot a fill (read or zero) targets and binds it to
// the section: the shadow slot when the schedule overlaps and memory
// allows (so the fill need not wait for the previous instance's
// consumers), otherwise the current slot in place. shadow reports whether
// the fill flipped away from a live instance.
func (s *scheduler) fillSlot(buf *codegen.Buffer, lo, shape []int64) (slot *pslot, shadow bool) {
	if s.comp == 0 && s.e.opt.DryRun {
		// No tensor to bind and no overlap to model: the buffer needs no
		// instance (dry-run writes and compute blocks cope with buffers
		// that have none).
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

// sectionOp places one section operation on the disk track no earlier
// than after and performs it — under the run's retry policy, its failure
// attributed to array and plan position — the single place section I/O
// leaves the engine. It returns the operation's modelled end.
func (s *scheduler) sectionOp(read bool, array string, lo, shape []int64, data []float64, after float64, args map[string]any) (float64, error) {
	dur := s.e.ioDur(read, shape)
	verb := "W "
	if read {
		verb = "R "
	}
	end := s.place(obs.TrackDisk, after, dur, verb, array, args)
	s.worked = true
	arr := s.e.arrs[array]
	err := s.e.retryOp(array, dur, func() error {
		if read {
			return arr.ReadSection(lo, shape, data)
		}
		return arr.WriteSection(lo, shape, data)
	})
	if err != nil {
		return end, ioErr(read, array, s.e.pos(), err)
	}
	return end, nil
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
	end, err := s.sectionOp(true, n.Array, lo, shape, data, slot.free(), args)
	slot.refill(end)
	return err
}

// write retires the buffer's live instance to disk: the section it was
// bound at, not the walker's current one. Dry-run plans skip zero-fills,
// so a dry-run write may target a buffer with no instance; the walker's
// section stands in.
func (s *scheduler) write(n *codegen.IO, lo, shape []int64) error {
	slot := s.cur(n.Buffer)
	after := 0.0
	var data []float64
	if slot != nil {
		if slot.t != nil {
			lo, shape, data = slot.base, dimsToInt64(slot.t.Dims()), slot.t.Data()
		}
		after = slot.free()
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
	end, err := s.sectionOp(false, n.Array, lo, shape, data, after, args)
	if slot != nil {
		slot.use(end)
	}
	return err
}

// zero fills the buffer's next slot with zeros (data mode only).
func (s *scheduler) zero(buf *codegen.Buffer, lo, shape []int64) error {
	slot, _ := s.fillSlot(buf, lo, shape)
	end := s.place(obs.TrackCompute, slot.free(), 0, "zero ", buf.Name, nil)
	s.worked = true
	slot.t.Zero()
	slot.refill(end)
	return nil
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
	var args map[string]any
	if s.e.opt.Tracer != nil {
		args = map[string]any{"bytes": bytes, "writes": writes}
	}
	s.place(obs.TrackDisk, 0, s.e.plan.Cfg.Disk.WriteTime(bytes, writes), "init ", array, args)
	s.worked = true
	if err := s.e.initPass(da, tiles); err != nil {
		return fmt.Errorf("exec: init pass over %q: %w", array, err)
	}
	return nil
}

// compute binds a compute block to the live buffer instances, places it
// after their producers (and the output's earlier consumers) and runs it
// in the kernel's own Block, allocating nothing. In data mode a missing
// instance is a plan error; in dry-run mode the block is timeline-only and
// missing instances simply contribute no dependencies.
func (s *scheduler) compute(c *codegen.Compute) error {
	e := s.e
	dryRun := e.opt.DryRun
	k := e.kernels[c]
	blk := k.blk
	k.clip(blk, e)
	outSlot := s.cur(c.Out)
	after := 0.0
	if outSlot != nil {
		after = outSlot.free()
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
		after = max(after, slot.fillEnd)
		if !dryRun {
			k.bind(blk, i+1, e.base, slot.binding)
		}
	}
	end := s.place(obs.TrackCompute, after, e.computeSeconds(k, blk), "compute ", c.Out.Name, nil)
	if !dryRun {
		s.worked = true
		k.con.Run(blk, e.opt.Workers)
	}
	for _, f := range c.Factors {
		if slot := s.cur(f); slot != nil {
			slot.use(end)
		}
	}
	if outSlot != nil {
		// The block mutates the output instance: it becomes the contents'
		// producer.
		outSlot.refill(end)
	}
	return nil
}
