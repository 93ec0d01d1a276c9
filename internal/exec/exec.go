// Package exec is the out-of-core execution engine: it interprets a
// concrete plan (codegen.Plan) against a disk backend, performing the
// plan's reads, writes, buffer initializations, and intra-tile compute
// blocks. In data mode it produces numerically verifiable results; in
// dry-run mode it executes only the I/O structure, which scales to the
// paper's array sizes and yields the "measured" disk I/O times of the
// evaluation.
//
// There is one engine and one execution order. Each run first builds a
// step tree from the plan's lowering (codegen.Lower, the section rule the
// plan verifier checks too): every I/O step holds its codegen.Section and
// owns its lo/shape; every compute step holds its kernel (compute.go). A walker
// then runs the tree on integers — loop bases on a stack, dry-run pruning,
// error positions — and hands every step, as it is reached, to a
// scheduler (pipeline.go) that binds, times and runs it on the calling
// goroutine, in program order, stopping at the first failure.
// Options.Pipeline changes only the modelled timeline: a second clock on
// which prefetch and write-behind overlap compute.
package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Options control a run.
type Options struct {
	// DryRun skips compute and data movement, executing only the I/O
	// structure against a cost-only backend.
	DryRun bool
	// Workers > 1 parallelizes intra-tile compute blocks across
	// goroutines (the engine's stand-in for the collective in-memory
	// kernels of the paper's GA-based code). Results are bit-identical to
	// serial execution: the kernel splits the longest free loop — one whose
	// index addresses the output buffer — so workers own disjoint output
	// elements, and its summation rule (tensor.Contraction) fixes each
	// element's accumulation order by the contracted loops alone, which a
	// split of a free loop leaves whole inside every worker.
	Workers int
	// OpenInputs opens the plan's input arrays on the backend instead of
	// creating and staging them — the library-adoption path where data
	// already lives on disk. Extents must match the plan; the inputs
	// argument of Run is ignored.
	OpenInputs bool
	// NoFetch leaves outputs on disk instead of reading them back into
	// Result.Outputs; required when outputs are too large for memory.
	NoFetch bool
	// StopAfter, when positive, aborts the run after that many top-level
	// work units (top-level body items, counting each iteration of a
	// top-level loop) and reports the reached checkpoint — simulating a
	// crash or scheduled preemption at a safe boundary.
	StopAfter int64
	// Resume skips work completed before the checkpoint of an earlier
	// (interrupted) run against the same persistent backend. Inputs must
	// not be re-staged: combine with OpenInputs and a backend holding the
	// interrupted run's state.
	Resume *Checkpoint
	// Pipeline models the double-buffered schedule: the run executes
	// exactly as a serial one (same operations, same order, same bytes),
	// but buffers may take a shadow instance and the modelled timeline
	// keeps separate I/O and compute clocks, so disk reads are prefetched
	// and writes retired behind compute blocks on the model. The clocks
	// meet at every top-level work-unit boundary. Result.Pipeline reports
	// the modelled serial vs overlapped critical-path times. The shadow
	// instances do not keep to the memory limit: a data run checks it
	// only when it first creates a buffer's shadow slot, which may then
	// grow to a larger tile, so PeakBufferBytes can exceed the limit; a
	// dry run never checks it and can model more prefetches than the data
	// run of the same plan (pipeline.go).
	Pipeline bool
	// Metrics, if non-nil, receives engine instrumentation: prefetch and
	// write-behind counters, barrier stalls, and buffer memory
	// watermarks. Attach the same registry to the disk backend
	// (disk.AttachMetrics) for a combined snapshot.
	Metrics *obs.Registry
	// Retry, if non-nil, retries transient section-I/O faults (typed
	// *disk.IOError values with Transient() true) with capped exponential
	// backoff under either schedule. Backoff delays and extra attempts are
	// charged to the modelled timeline, so a retried run's trace still
	// reconciles with the backend's Stats.Time(). Persistent faults are
	// never retried; they abort the run with a *RunError carrying the
	// last completed checkpoint (see RunResilient).
	Retry *disk.RetryPolicy
	// SyncUnits, if true, syncs the backend's durable state (disk.Syncer,
	// reached through wrapper chains via disk.SyncBackend) at every unit
	// boundary BEFORE the checkpoint advances, and once after staging. The
	// ordering is the crash-consistency invariant: a checkpoint is never
	// recorded ahead of the bytes it promises, so a kill at any moment
	// leaves the store recoverable from the last completed checkpoint.
	// RunResilient and ooc set it whenever recovery is enabled; backends
	// without a Sync hook (e.g. the in-memory simulator chain) make it a
	// no-op.
	SyncUnits bool
	// OnUnit, if non-nil, runs after every newly completed top-level
	// work-unit boundary, once the unit's durability sync (SyncUnits)
	// has happened and the checkpoint has advanced — the hook for
	// background maintenance that must interleave at safe boundaries
	// (the health scrub scheduler ticks here). An error aborts the run like
	// an I/O failure.
	OnUnit func() error
	// Tracer, if non-nil, receives the run's modelled timeline as spans:
	// disk operations on the obs "disk" track and compute blocks on the
	// "compute" track, with instant events marking barriers. Serial runs
	// place both tracks on one clock; pipelined runs use the two-clock
	// overlapped timeline, so the exported Chrome trace shows prefetch and
	// write-behind riding alongside compute. Zero-fills and
	// compute blocks get a compute-track span whenever the walker reaches
	// them, dry runs included (an I/O-free loop is descended once, its trip
	// count folded into the block's duration). The disk-track span total
	// equals the backend's modelled disk.Stats.Time() up to floating-point
	// association.
	Tracer *obs.Tracer
	// Log, if non-nil, receives the engine's structured events (system
	// "exec"): io.fault / io.retry per retried operation, and the
	// recovery and integrity-heal record of RunResilient.
	Log *obs.Log
}

// Checkpoint identifies a safe resumption boundary: top-level body item
// Item, iteration Iter of that item if it is a loop. Safe because
// checkpointable plans carry no read-write buffer state across top-level
// loop iterations — all accumulated state is on disk.
type Checkpoint struct {
	Item int64 `json:"item"`
	Iter int64 `json:"iter"`
}

// Checkpointable reports whether a plan supports StopAfter/Resume: its
// top level may contain only loops, zero-init passes, and reads
// (re-executable); a top-level write or buffer zero-fill would mean
// in-memory accumulation lives across top-level iterations.
//
// The property is purely syntactic over Plan.Body and is the contract of
// the engine's work-unit model: each iteration of a top-level loop is one
// unit, every other top-level item its own unit, and a checkpointable
// plan carries no live buffer state from one unit into the next — so a
// run can stop at any unit boundary and a later run can skip completed
// units. The static plan verifier (internal/verify) reuses exactly this
// predicate for its Report.Checkpointable field and enforces the
// underlying no-cross-unit-state property independently as its rule S1.
func Checkpointable(p *codegen.Plan) bool {
	for _, n := range p.Body {
		switch n := n.(type) {
		case *codegen.Loop, *codegen.InitPass:
		case *codegen.IO:
			if !n.Read {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Result reports a run.
type Result struct {
	// Stats are the backend's I/O statistics for the computation (input
	// staging excluded).
	Stats disk.Stats
	// Outputs holds the output arrays read back from disk (nil in
	// dry-run).
	Outputs map[string]*tensor.Tensor
	// PeakBufferBytes is the high-water mark of instantiated buffer
	// memory during execution (0 in dry-run). It never exceeds the plan's
	// static MemoryBytes, which allocates every buffer at full tile
	// extent for the whole run.
	PeakBufferBytes int64
	// Stopped is non-nil when Options.StopAfter interrupted the run; it
	// holds the checkpoint to Resume from. Outputs are not fetched on a
	// stopped run.
	Stopped *Checkpoint
	// Pipeline reports the pipelined schedule's modelled timeline (nil
	// unless Options.Pipeline).
	Pipeline *PipelineStats
	// Retry tallies the run's transient-fault handling (all zero unless
	// Options.Retry saw faults).
	Retry RetryStats
	// Recovery reports checkpoint-based restarts (nil unless the run went
	// through RunResilient).
	Recovery *RecoveryReport
}

// RetryStats tallies transient-fault handling during one run.
type RetryStats struct {
	// FaultsSeen counts typed I/O errors observed (including ones that
	// were eventually retried successfully).
	FaultsSeen int64
	// Retries counts retry attempts issued.
	Retries int64
	// RetrySeconds is the extra modelled time spent on retries: backoff
	// delays plus the repeated attempts' I/O time.
	RetrySeconds float64
}

// RunError is the typed failure of a run: it wraps the underlying cause
// (errors.Is/As reach through it, so a *disk.IOError stays visible) and
// carries the state RunResilient needs to restart — the last completed
// checkpoint, I/O statistics and retry tallies up to the failure, and
// the modelled seconds wasted since the last checkpoint boundary.
type RunError struct {
	// Err is the attributed cause.
	Err error
	// Checkpoint is the last completed unit boundary (nil when the plan
	// is not checkpointable).
	Checkpoint *Checkpoint
	// Staged reports whether input staging completed; a restart is only
	// meaningful when it did (the arrays exist on the backend).
	Staged bool
	// WastedSeconds is the modelled I/O time spent past the last
	// checkpoint boundary — work a restart repeats.
	WastedSeconds float64
	// Stats is the backend's modelled I/O accounting up to the failure.
	Stats disk.Stats
	// Retry tallies fault handling up to the failure.
	Retry RetryStats
}

func (e *RunError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// Run executes the plan. In data mode, inputs must hold a tensor for
// every input array; outputs are read back from disk afterwards.
func Run(p *codegen.Plan, be disk.Backend, inputs map[string]*tensor.Tensor, opt Options) (*Result, error) {
	return RunContext(context.Background(), p, be, inputs, opt)
}

// RunContext is Run under a context: cancellation or deadline expiry aborts
// the run at the next top-level item or loop iteration and returns the
// context's error.
func RunContext(ctx context.Context, p *codegen.Plan, be disk.Backend, inputs map[string]*tensor.Tensor, opt Options) (*Result, error) {
	if (opt.StopAfter > 0 || opt.Resume != nil) && !Checkpointable(p) {
		return nil, fmt.Errorf("exec: plan holds buffer state across top-level iterations; not checkpointable")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e := newEngine(ctx, p, be, opt)
	if opt.Resume != nil {
		// Completed units never regress below the resume point.
		e.lastCP = *opt.Resume
	}
	if err := e.stage(inputs); err != nil {
		return nil, e.failure(err)
	}
	if opt.SyncUnits {
		// Staged inputs are the baseline every restart re-opens; make them
		// durable before the first unit can complete against them.
		if err := disk.SyncBackend(be); err != nil {
			return nil, e.failure(fmt.Errorf("exec: sync after staging: %w", err))
		}
	}
	e.staged = true
	be.ResetStats()
	stopped, err := e.execTop()
	if err != nil {
		return nil, e.failure(err)
	}
	opt.Metrics.Gauge("exec.buffer.peak_bytes").Set(float64(e.sched.peakBytes))
	res := &Result{Stats: be.Stats(), PeakBufferBytes: e.sched.peakBytes, Stopped: stopped, Retry: e.retryStats}
	if opt.Pipeline {
		res.Pipeline = e.sched.snapshot()
	}
	if stopped != nil {
		return res, nil
	}
	if !opt.DryRun && !opt.NoFetch {
		res.Outputs = map[string]*tensor.Tensor{}
		for _, da := range p.DiskArrays {
			if da.Kind != loops.Output {
				continue
			}
			t, err := e.fetch(da)
			if err != nil {
				return nil, e.failure(fmt.Errorf("exec: fetch output %q: %w", da.Name, err))
			}
			res.Outputs[da.Name] = t
		}
		res.Retry = e.retryStats
		if opt.Pipeline {
			// Fetch reads may have retried, which advanced the I/O clock.
			res.Pipeline = e.sched.snapshot()
		}
	}
	return res, nil
}

// engine is one run's state: the lowered plan and its walker, plus the
// retry, checkpoint and staging bookkeeping around them.
type engine struct {
	plan *codegen.Plan
	be   disk.Backend
	opt  Options
	//lint:ignore ctxfield the engine struct is per-Run scratch state, never retained past the call
	ctx context.Context
	// sched runs the steps the walker reaches (pipeline.go).
	sched *scheduler
	// top is the plan body lowered for the run, one step per top-level
	// item.
	top []step
	// bases and names hold the enclosing loops' tile bases and indices,
	// outermost first: steps read their bases by depth, and errors name
	// the position from both.
	bases []int64
	names []string
	// arrs holds the staged arrays by name, for binding steps to them.
	arrs map[string]disk.Array
	// computes is false when a dry run's compute blocks — never executed —
	// are not even timed (no tracer, no PipelineStats to fill): lowering
	// then drops them, and the walker skips every I/O-free loop.
	computes bool
	// dryLoops is the stack of I/O-free loops the walker is currently
	// descending once instead of iterating (dry-run only); their trip
	// counts scale the modelled compute durations beneath.
	dryLoops []*codegen.Loop
	// Retry/recovery bookkeeping: the tallies and the backoff jitter key.
	retryStats RetryStats
	retryKey   uint64
	// staged flips once input staging completes — the point after which
	// all plan arrays exist on the backend and a restart can Open them.
	staged bool
	// lastCP is the latest completed unit boundary (monotonic); cpTime
	// is the backend's modelled time when it was reached.
	lastCP Checkpoint
	cpTime float64
	// mFaults/mRetries mirror the retry tallies into the metrics
	// registry (nil without Options.Metrics).
	mFaults, mRetries *obs.Counter
	// vRetries breaks retries down per array (labeled family
	// exec.io.retries.by_array); nil without Options.Metrics.
	vRetries *obs.CounterVec
}

// newEngine sets up a run's state: the scheduler, and the plan lowered
// to a step tree.
func newEngine(ctx context.Context, p *codegen.Plan, be disk.Backend, opt Options) *engine {
	e := &engine{
		plan:     p,
		be:       be,
		opt:      opt,
		ctx:      ctx,
		arrs:     map[string]disk.Array{},
		computes: !opt.DryRun || opt.Tracer != nil || opt.Pipeline,
		mFaults:  opt.Metrics.Counter("exec.io.faults"),
		mRetries: opt.Metrics.Counter("exec.io.retries"),
		vRetries: opt.Metrics.CounterVec("exec.io.retries.by_array", "array"),
	}
	e.sched = newScheduler(e)
	lw := &lowering{e: e, bufs: map[*codegen.Buffer]*pipeBuf{}}
	e.top = lw.body(codegen.Lower(p))
	return e
}

// noteUnit records a completed unit boundary, keeping lastCP monotonic
// (resumed runs re-execute top-level reads of earlier items, which must
// not roll the checkpoint back). Under Options.SyncUnits the backend is
// synced first: the checkpoint only advances once the unit's bytes are
// durable, so recovery never resumes past data that a crash could have
// lost.
func (e *engine) noteUnit(cp Checkpoint) error {
	if cp.Item < e.lastCP.Item || (cp.Item == e.lastCP.Item && cp.Iter <= e.lastCP.Iter) {
		return nil
	}
	if e.opt.SyncUnits {
		if err := disk.SyncBackend(e.be); err != nil {
			return fmt.Errorf("exec: sync at unit boundary {item %d, iter %d}: %w", cp.Item, cp.Iter, err)
		}
	}
	e.lastCP = cp
	e.cpTime = e.be.Stats().Time()
	if e.opt.OnUnit != nil {
		if err := e.opt.OnUnit(); err != nil {
			return fmt.Errorf("exec: unit hook at {item %d, iter %d}: %w", cp.Item, cp.Iter, err)
		}
	}
	return nil
}

// failure wraps a run error in a *RunError carrying restart state.
func (e *engine) failure(err error) error {
	re := &RunError{
		Err:    err,
		Staged: e.staged,
		Stats:  e.be.Stats(),
		Retry:  e.retryStats,
	}
	if Checkpointable(e.plan) {
		cp := e.lastCP
		re.Checkpoint = &cp
	}
	if w := re.Stats.Time() - e.cpTime; w > 0 {
		re.WastedSeconds = w
	}
	return re
}

// ioTarget is a staged disk array, bound by name once per step.
type ioTarget struct {
	name string
	arr  disk.Array
}

// target binds the named array; staging must have created or opened it.
func (e *engine) target(name string) ioTarget {
	return ioTarget{name: name, arr: e.arrs[name]}
}

// retryOp runs one section read or write of t under the retry policy:
// transient typed faults are retried with capped exponential backoff.
// attemptDur is the modelled duration of one attempt; each retry charges
// attemptDur plus its backoff delay to the modelled I/O clock at once
// (scheduler.addIO) so the run still reconciles with the backend's
// Stats.Time(). Persistent faults and retry-budget exhaustion return the
// last error unchanged.
func (e *engine) retryOp(t *ioTarget, read bool, lo, shape []int64, data []float64, attemptDur float64) error {
	array, pol := t.name, e.opt.Retry
	attempts := pol.Attempts()
	for attempt := 0; ; attempt++ {
		var err error
		if read {
			err = t.arr.ReadSection(lo, shape, data)
		} else {
			err = t.arr.WriteSection(lo, shape, data)
		}
		if err == nil {
			return nil
		}
		var ioe *disk.IOError
		if errors.As(err, &ioe) {
			e.noteFault()
			if e.opt.Log.Enabled(obs.LevelWarn) {
				e.opt.Log.Warn("exec", "io.fault",
					obs.F("array", ioe.Array),
					obs.F("op", ioe.Op),
					obs.F("transient", ioe.Transient()),
					obs.F("error", err))
			}
		}
		if pol == nil || !disk.IsTransient(err) || attempt+1 >= attempts || e.ctx.Err() != nil {
			return err
		}
		e.retryKey++
		delay := pol.Delay(attempt, e.retryKey)
		e.noteRetry(delay + attemptDur)
		e.vRetries.With(array).Inc()
		if e.opt.Log.Enabled(obs.LevelWarn) {
			e.opt.Log.Warn("exec", "io.retry",
				obs.F("array", array),
				obs.F("attempt", attempt+1),
				obs.F("of", attempts),
				obs.F("delay_s", delay),
				obs.F("error", err))
		}
		e.sched.addIO(delay + attemptDur)
	}
}

func (e *engine) noteFault() {
	e.retryStats.FaultsSeen++
	e.mFaults.Inc()
}

func (e *engine) noteRetry(seconds float64) {
	e.retryStats.Retries++
	e.retryStats.RetrySeconds += seconds
	e.mRetries.Inc()
}

// stage creates all disk arrays and loads the inputs (or opens
// pre-existing inputs under Options.OpenInputs; on Resume, everything is
// opened since the interrupted run created it).
func (e *engine) stage(inputs map[string]*tensor.Tensor) error {
	for _, da := range e.plan.DiskArrays {
		if e.opt.Resume != nil {
			a, err := e.be.Open(da.Name)
			if err != nil {
				return fmt.Errorf("exec: resume: %w", err)
			}
			e.arrs[da.Name] = a
			continue
		}
		if da.Kind == loops.Input && e.opt.OpenInputs {
			a, err := e.be.Open(da.Name)
			if err != nil {
				return fmt.Errorf("exec: open input %q: %w", da.Name, err)
			}
			got := a.Dims()
			if len(got) != len(da.Dims) {
				return fmt.Errorf("exec: existing input %q has rank %d, plan needs %d", da.Name, len(got), len(da.Dims))
			}
			for i := range got {
				if got[i] != da.Dims[i] {
					return fmt.Errorf("exec: existing input %q dims %v do not match plan %v", da.Name, got, da.Dims)
				}
			}
			e.arrs[da.Name] = a
			continue
		}
		a, err := e.be.Create(da.Name, da.Dims)
		if err != nil {
			return fmt.Errorf("exec: create array %q: %w", da.Name, err)
		}
		e.arrs[da.Name] = a
		if da.Kind != loops.Input || e.opt.DryRun {
			continue
		}
		in, ok := inputs[da.Name]
		if !ok {
			return fmt.Errorf("exec: missing input array %q", da.Name)
		}
		if int64(in.Size()) != size(da.Dims) {
			return fmt.Errorf("exec: input %q has %d elements, want %d", da.Name, in.Size(), size(da.Dims))
		}
		t := e.target(da.Name)
		if err := e.retryOp(&t, false, make([]int64, len(da.Dims)), da.Dims, in.Data(), 0); err != nil {
			return fmt.Errorf("exec: stage input %q: %w", da.Name, err)
		}
	}
	return nil
}

func size(dims []int64) int64 {
	n := int64(1)
	for _, d := range dims {
		n *= d
	}
	return n
}

// fetch reads a whole array back from disk (after stats capture).
func (e *engine) fetch(da codegen.DiskArray) (*tensor.Tensor, error) {
	dims := make([]int, len(da.Dims))
	for i, d := range da.Dims {
		dims[i] = int(d)
	}
	t := tensor.New(dims...)
	tg := e.target(da.Name)
	if err := e.retryOp(&tg, true, make([]int64, len(da.Dims)), da.Dims, t.Data(), 0); err != nil {
		return nil, err
	}
	return t, nil
}

// execTop drives the plan's top-level items with checkpoint support:
// StopAfter counts top-level loop iterations; Resume skips completed
// items/iterations (re-executing top-level reads, which restore the
// buffers later nests consume).
func (e *engine) execTop() (*Checkpoint, error) {
	var units int64
	resume := e.opt.Resume
	for i, st := range e.top {
		item := int64(i)
		if err := e.ctxErr(); err != nil {
			return nil, err
		}
		if ls, ok := st.(*loopStep); ok {
			if e.opt.DryRun && !ls.hasIO {
				continue
			}
			l := ls.l
			var it int64
			e.bases, e.names = append(e.bases[:0], 0), append(e.names[:0], l.Index)
			for b := int64(0); b < l.Range; b += l.Tile {
				if resume != nil && (item < resume.Item || (item == resume.Item && it < resume.Iter)) {
					it++
					continue
				}
				e.bases[0] = b
				if err := e.runUnit(ls.body); err != nil {
					return nil, err
				}
				it++
				units++
				if err := e.noteUnit(Checkpoint{Item: item, Iter: it}); err != nil {
					return nil, err
				}
				if e.opt.StopAfter > 0 && units >= e.opt.StopAfter && b+l.Tile < l.Range {
					e.bases, e.names = e.bases[:0], e.names[:0]
					return &Checkpoint{Item: item, Iter: it}, nil
				}
			}
			e.bases, e.names = e.bases[:0], e.names[:0]
			if err := e.noteUnit(Checkpoint{Item: item + 1}); err != nil {
				return nil, err
			}
			continue
		}
		// Non-loop top-level item. On resume: re-execute reads (restores
		// read-only buffers); skip anything else already done.
		if resume != nil && item < resume.Item {
			if io, ok := st.(*ioStep); !ok || !io.n.Read {
				continue
			}
		}
		if err := e.runUnit(e.top[i : i+1]); err != nil {
			return nil, err
		}
		if err := e.noteUnit(Checkpoint{Item: item + 1}); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// runUnit executes one top-level work unit — a single iteration of a
// top-level loop, or a non-loop top-level item — and closes it with the
// scheduler's barrier, where a pipelined run's two modelled clocks meet.
func (e *engine) runUnit(steps []step) error {
	return e.sched.barrier(e.walk(steps))
}

// ctxErr reports context cancellation as a run error.
func (e *engine) ctxErr() error {
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("exec: run cancelled: %w", err)
	}
	return nil
}

// pos describes the current loop position ("i=0,j=128") for error
// attribution.
func (e *engine) pos() string {
	if len(e.names) == 0 {
		return "top level"
	}
	var b strings.Builder
	for i, idx := range e.names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", idx, e.bases[i])
	}
	return b.String()
}

// tileBase is the current tile base of the enclosing loop at depth d of
// the loop stack; d < 0 stands for no loop, whose base is 0.
func (e *engine) tileBase(d int) int64 {
	if d < 0 {
		return 0
	}
	return e.bases[d]
}

// walk is the plan walker: it resolves loop bases and sections in program
// order and hands each step to the scheduler as it is reached, stopping at
// the first error the scheduler returns: nothing past a failed operation
// is issued.
func (e *engine) walk(steps []step) error {
	for _, st := range steps {
		var err error
		switch st := st.(type) {
		case *loopStep:
			err = e.walkLoop(st)
		case *ioStep:
			st.At(e.bases, st.lo, st.shape)
			if st.n.Read {
				err = e.sched.read(st)
			} else {
				err = e.sched.write(st)
			}
		case *zeroStep:
			st.At(e.bases, st.lo, st.shape)
			err = e.sched.zero(st)
		case *initStep:
			err = e.sched.init(st)
		case *kernel:
			err = e.sched.compute(st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// walkLoop iterates a tiling loop. A dry run descends a loop with no disk
// traffic inside (the subtree holds only compute: InitPass counts as I/O)
// for a single iteration and folds the remaining trips into the compute
// multiplier, so the modelled compute time covers the whole subtree
// without enumerating its (cost-model-unconstrained) iteration space.
func (e *engine) walkLoop(ls *loopStep) error {
	l := ls.l
	e.bases, e.names = append(e.bases[:ls.depth], 0), append(e.names[:ls.depth], l.Index)
	if e.opt.DryRun && !ls.hasIO {
		e.dryLoops = append(e.dryLoops, l)
		if err := e.walk(ls.body); err != nil {
			return err
		}
		e.dryLoops = e.dryLoops[:len(e.dryLoops)-1]
	} else {
		for b := int64(0); b < l.Range; b += l.Tile {
			if err := e.ctxErr(); err != nil {
				return err
			}
			e.bases[ls.depth] = b
			if err := e.walk(ls.body); err != nil {
				return err
			}
		}
	}
	e.bases, e.names = e.bases[:ls.depth], e.names[:ls.depth]
	return nil
}

// ioErr attributes a disk error to the array and plan position.
func ioErr(read bool, array, pos string, err error) error {
	verb := "write to"
	if read {
		verb = "read of"
	}
	return fmt.Errorf("exec: %s %q at %s: %w", verb, array, pos, err)
}

// ioDur is the modelled duration of one section operation of the given
// shape — the same figure the backend charges to Stats.
func (e *engine) ioDur(read bool, shape []int64) float64 {
	bytes := size(shape) * 8
	if read {
		return e.plan.Cfg.Disk.ReadTime(bytes, 1)
	}
	return e.plan.Cfg.Disk.WriteTime(bytes, 1)
}

// initPass zero-fills a disk array tile by tile, charging the writes.
func (e *engine) initPass(st *initStep) error {
	da, lo, shape := st.da, st.lo, st.shape
	if size(da.Dims) == 0 {
		return nil
	}
	if st.arr == nil {
		st.ioTarget = e.target(st.array)
	}
	for i := range lo {
		lo[i], shape[i] = 0, min(st.tiles[i], da.Dims[i])
	}
	for {
		var buf []float64
		if !e.opt.DryRun {
			n := size(shape)
			if int64(len(st.zero)) < n {
				st.zero = make([]float64, n)
			}
			buf = st.zero[:n]
		}
		if err := e.retryOp(&st.ioTarget, false, lo, shape, buf, e.ioDur(false, shape)); err != nil {
			return fmt.Errorf("tile at lo=%v: %w", lo, err)
		}
		// Next tile, the last dim fastest.
		d := len(lo) - 1
		for ; d >= 0; d-- {
			if lo[d] += st.tiles[d]; lo[d] < da.Dims[d] {
				shape[d] = min(st.tiles[d], da.Dims[d]-lo[d])
				break
			}
			lo[d], shape[d] = 0, min(st.tiles[d], da.Dims[d])
		}
		if d < 0 {
			return nil
		}
	}
}

// step is one node of the plan lowered for the run: a *loopStep,
// *ioStep, *zeroStep, *initStep or *kernel, or nil for a node the run
// never reaches — a dry run's zero-fills, and, when nothing times them,
// its compute blocks and the I/O-free loops below the top level.
type step any

// loopStep is a tiling loop at depth on the loop stack.
type loopStep struct {
	l     *codegen.Loop
	depth int
	// hasIO reports whether the subtree performs disk I/O (an InitPass
	// counts); dry runs do not iterate I/O-free loops (their iteration
	// counts are unconstrained by the cost model and can be astronomical).
	hasIO bool
	body  []step
}

// ioStep is a section read or write.
type ioStep struct {
	n *codegen.IO
	sect
	// ioTarget is bound on the step's first run (staging comes after
	// lowering).
	ioTarget
	span obs.Key
}

// zeroStep zero-fills a buffer's next instance (data mode only).
type zeroStep struct {
	sect
	span obs.Key
}

// initStep zero-fills a whole disk array tile by tile.
type initStep struct {
	array string
	// da is the plan's declaration of the array (nil: none), tiles its
	// init pass's tile extent per dim; lo and shape are the pass's
	// scratch, zero its data-mode source tile.
	da               *codegen.DiskArray
	tiles, lo, shape []int64
	zero             []float64
	// ioTarget is bound on the step's first run.
	ioTarget
	span obs.Key
}

// sect is the disk section a step's buffer maps to: the plan lowering's
// rule, the buffer's double-buffer state, and lo and shape, the step's
// own, refilled by At each time the step runs (a disk.Array does not keep
// them); ext is shape as tensor dims.
type sect struct {
	codegen.Section
	pb        *pipeBuf
	lo, shape []int64
	ext       []int
}

// lowering is the state of building a run's steps from the plan's
// lowering.
type lowering struct {
	e *engine
	// bufs holds each plan buffer's double-buffer state, shared by every
	// step that names the buffer.
	bufs map[*codegen.Buffer]*pipeBuf
}

// body builds one step per lowered node. Below the top level, a dry run
// that times no compute drops (nil) each I/O-free loop: the walker never
// enters it, and the lowering has already forgotten its index for the
// sections after it, as if it had run.
func (lw *lowering) body(ls []codegen.Lowered) []step {
	e := lw.e
	steps := make([]step, len(ls))
	for i := range ls {
		l := &ls[i]
		switch n := l.Node.(type) {
		case *codegen.Loop:
			body := lw.body(l.Body)
			if l.Depth == 0 || !e.opt.DryRun || l.HasIO || e.computes {
				steps[i] = &loopStep{l: n, depth: l.Depth, hasIO: l.HasIO, body: body}
			}
		case *codegen.IO:
			steps[i] = &ioStep{n: n, sect: newSect(l.Sect, lw.pipeBuf(n.Buffer)), span: e.sched.span(ioVerb(n.Read), n.Array)}
		case *codegen.ZeroBuf:
			if !e.opt.DryRun {
				steps[i] = &zeroStep{sect: newSect(l.Sect, lw.pipeBuf(n.Buffer)), span: e.sched.span("zero ", n.Buffer.Name)}
			}
		case *codegen.InitPass:
			steps[i] = lw.initStep(n.Array)
		case *codegen.Compute:
			if e.computes {
				steps[i] = lw.kernel(n, l)
			}
		}
	}
	return steps
}

// pipeBuf returns buf's double-buffer state.
func (lw *lowering) pipeBuf(buf *codegen.Buffer) *pipeBuf {
	pb := lw.bufs[buf]
	if pb == nil {
		pb = &pipeBuf{}
		lw.bufs[buf] = pb
	}
	return pb
}

// newSect gives a step the lowered section s of a buffer with
// double-buffer state pb, and its own scratch.
func newSect(s codegen.Section, pb *pipeBuf) sect {
	r := len(s)
	i64 := make([]int64, 2*r)
	return sect{Section: s, pb: pb, lo: i64[:r:r], shape: i64[r:], ext: make([]int, r)}
}

// initStep lowers the init pass over the named array: its tile extent per
// array dim.
func (lw *lowering) initStep(name string) *initStep {
	p := lw.e.plan
	st := &initStep{array: name, span: lw.e.sched.span("init ", name)}
	for a := range p.DiskArrays {
		if da := &p.DiskArrays[a]; da.Name == name {
			r := len(da.Dims)
			i64 := make([]int64, 3*r)
			st.da, st.tiles, st.lo, st.shape = da, i64[:r:r], i64[r:2*r:2*r], i64[2*r:]
			for i, idx := range da.Indices {
				st.tiles[i] = p.Tiles[idx]
			}
			break
		}
	}
	return st
}
