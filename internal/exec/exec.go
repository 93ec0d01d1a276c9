// Package exec is the out-of-core execution engine: it interprets a
// concrete plan (codegen.Plan) against a disk backend, performing the
// plan's reads, writes, buffer initializations, and intra-tile compute
// blocks. In data mode it produces numerically verifiable results; in
// dry-run mode it executes only the I/O structure, which scales to the
// paper's array sizes and yields the "measured" disk I/O times of the
// evaluation.
//
// There is one engine and one execution order: a walker (this file)
// resolves loop bases, sections, dry-run pruning and error positions and
// hands every step, as it is produced, to a scheduler (pipeline.go) that
// binds, times and runs it on the calling goroutine, in program order,
// stopping at the first failure. Options.Pipeline changes only the
// modelled timeline: a second clock on which prefetch and write-behind
// overlap compute.
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
	"repro/internal/placement"
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
	// but buffers may take a shadow instance within the memory limit and
	// the modelled timeline keeps separate I/O and compute clocks, so disk
	// reads are prefetched and writes retired behind compute blocks on the
	// model. The clocks meet at every top-level work-unit boundary.
	// Result.Pipeline reports the modelled serial vs overlapped
	// critical-path times.
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
	e.subtreeHasIO(p.Body)
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
	stopped, err := e.execTop(p.Body)
	if err != nil {
		return nil, e.failure(err)
	}
	if opt.Metrics != nil {
		opt.Metrics.Gauge("exec.buffer.peak_bytes").Set(float64(e.sched.peakBytes))
	}
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

// engine is one run's state: the plan walker, plus the retry, checkpoint
// and staging bookkeeping around it.
type engine struct {
	plan *codegen.Plan
	be   disk.Backend
	opt  Options
	//lint:ignore ctxfield the engine struct is per-Run scratch state, never retained past the call
	ctx context.Context
	// sched runs the steps the walker produces (pipeline.go).
	sched *scheduler
	base  map[string]int64 // current tile base per loop index
	// loopStack holds the enclosing loops' indices and tile bases,
	// outermost first, for error attribution (e.base alone has no
	// deterministic order).
	loopStack []loopPos
	arrs      map[string]disk.Array
	// hasIO caches, per loop node, whether its subtree performs disk I/O;
	// dry runs do not iterate I/O-free subtrees (their iteration counts are
	// unconstrained by the cost model and can be astronomical).
	hasIO map[*codegen.Loop]bool
	// kernels holds every compute block of the plan, lowered once for the
	// run (compute.go).
	kernels map[*codegen.Compute]*kernel
	// computes is false when a dry run's compute blocks — never executed —
	// are not even timed (no tracer, no PipelineStats to fill): the walker
	// then skips them, and with them every I/O-free loop.
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

// newEngine sets up a run's state: the walker, the scheduler, and the
// plan's compute blocks lowered to kernels.
func newEngine(ctx context.Context, p *codegen.Plan, be disk.Backend, opt Options) *engine {
	e := &engine{
		plan:     p,
		be:       be,
		opt:      opt,
		ctx:      ctx,
		base:     map[string]int64{},
		arrs:     map[string]disk.Array{},
		hasIO:    map[*codegen.Loop]bool{},
		kernels:  map[*codegen.Compute]*kernel{},
		computes: !opt.DryRun || opt.Tracer != nil || opt.Pipeline,
	}
	if e.computes {
		e.lower(p.Body)
	}
	if opt.Metrics != nil {
		e.mFaults = opt.Metrics.Counter("exec.io.faults")
		e.mRetries = opt.Metrics.Counter("exec.io.retries")
		e.vRetries = opt.Metrics.CounterVec("exec.io.retries.by_array", "array")
	}
	e.sched = newScheduler(e)
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

// retryOp runs one section-I/O operation under the run's retry policy:
// transient typed faults are retried with capped exponential backoff.
// attemptDur is the modelled duration of one attempt; each retry charges
// attemptDur plus its backoff delay to the modelled I/O clock at once
// (scheduler.addIO) so the run still reconciles with the backend's
// Stats.Time(). Persistent faults and retry-budget exhaustion return the
// last error unchanged.
func (e *engine) retryOp(array string, attemptDur float64, fn func() error) error {
	pol := e.opt.Retry.ForArray(array)
	attempts := pol.Attempts()
	for attempt := 0; ; attempt++ {
		err := fn()
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
		if e.vRetries != nil {
			e.vRetries.With(array).Inc()
		}
		if e.opt.Log.Enabled(obs.LevelWarn) {
			e.opt.Log.Warn("exec", "io.retry",
				obs.F("array", array),
				obs.F("attempt", attempt+1),
				obs.F("of", attempts),
				obs.F("delay_s", delay),
				obs.F("error", err))
		}
		e.sched.addIO(delay + attemptDur)
		if pol.WallClock {
			//lint:ignore walltime opt-in wall-clock pacing: the modelled timeline already advanced above; Sleep runs only when the caller sets RetryPolicy.WallClock.
			if serr := pol.Sleep(e.ctx, delay); serr != nil {
				return err
			}
		}
	}
}

func (e *engine) noteFault() {
	e.retryStats.FaultsSeen++
	if e.mFaults != nil {
		e.mFaults.Inc()
	}
}

func (e *engine) noteRetry(seconds float64) {
	e.retryStats.Retries++
	e.retryStats.RetrySeconds += seconds
	if e.mRetries != nil {
		e.mRetries.Inc()
	}
}

// subtreeHasIO computes the dry-run pruning map.
func (e *engine) subtreeHasIO(ns []codegen.Node) bool {
	any := false
	for _, n := range ns {
		switch n := n.(type) {
		case *codegen.Loop:
			if e.subtreeHasIO(n.Body) {
				e.hasIO[n] = true
				any = true
			}
		case *codegen.IO, *codegen.InitPass:
			any = true
		}
	}
	return any
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
		lo := make([]int64, len(da.Dims))
		data := in.Data()
		err = e.retryOp(da.Name, 0, func() error {
			return a.WriteSection(lo, da.Dims, data)
		})
		if err != nil {
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
	lo := make([]int64, len(da.Dims))
	err := e.retryOp(da.Name, 0, func() error {
		return e.arrs[da.Name].ReadSection(lo, da.Dims, t.Data())
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// execTop drives the plan's top-level items with checkpoint support:
// StopAfter counts top-level loop iterations; Resume skips completed
// items/iterations (re-executing top-level reads, which restore the
// buffers later nests consume).
func (e *engine) execTop(body []codegen.Node) (*Checkpoint, error) {
	var units int64
	resume := e.opt.Resume
	for i, n := range body {
		item := int64(i)
		if err := e.ctxErr(); err != nil {
			return nil, err
		}
		if l, ok := n.(*codegen.Loop); ok {
			if e.opt.DryRun && !e.hasIO[l] {
				continue
			}
			var it int64
			e.loopStack = append(e.loopStack, loopPos{index: l.Index})
			for b := int64(0); b < l.Range; b += l.Tile {
				if resume != nil && (item < resume.Item || (item == resume.Item && it < resume.Iter)) {
					it++
					continue
				}
				e.setBase(l.Index, b)
				if err := e.runUnit(l.Body); err != nil {
					return nil, err
				}
				delete(e.base, l.Index)
				it++
				units++
				if err := e.noteUnit(Checkpoint{Item: item, Iter: it}); err != nil {
					return nil, err
				}
				if e.opt.StopAfter > 0 && units >= e.opt.StopAfter && b+l.Tile < l.Range {
					e.loopStack = e.loopStack[:len(e.loopStack)-1]
					return &Checkpoint{Item: item, Iter: it}, nil
				}
			}
			e.loopStack = e.loopStack[:len(e.loopStack)-1]
			if err := e.noteUnit(Checkpoint{Item: item + 1}); err != nil {
				return nil, err
			}
			continue
		}
		// Non-loop top-level item. On resume: re-execute reads (restores
		// read-only buffers); skip anything else already done.
		if resume != nil && item < resume.Item {
			if io, ok := n.(*codegen.IO); !ok || !io.Read {
				continue
			}
		}
		if err := e.runUnit(body[i : i+1]); err != nil {
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
func (e *engine) runUnit(ns []codegen.Node) error {
	return e.sched.barrier(e.walk(ns))
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
	if len(e.loopStack) == 0 {
		return "top level"
	}
	var b strings.Builder
	for i, p := range e.loopStack {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", p.index, p.base)
	}
	return b.String()
}

// loopPos is one enclosing loop's index and its current tile base.
type loopPos struct {
	index string
	base  int64
}

// setBase moves the innermost enclosing loop, over index, to tile base b.
func (e *engine) setBase(index string, b int64) {
	e.base[index] = b
	e.loopStack[len(e.loopStack)-1].base = b
}

// walk is the plan walker: it resolves loop bases and sections in program
// order and hands each step to the scheduler as it is reached, stopping at
// the first error the scheduler returns: nothing past a failed operation
// is issued.
func (e *engine) walk(ns []codegen.Node) error {
	for _, n := range ns {
		var err error
		switch n := n.(type) {
		case *codegen.Loop:
			err = e.walkLoop(n)
		case *codegen.IO:
			lo, shape := e.section(n.Buffer)
			if n.Read {
				err = e.sched.read(n, lo, shape)
			} else {
				err = e.sched.write(n, lo, shape)
			}
		case *codegen.ZeroBuf:
			if !e.opt.DryRun {
				lo, shape := e.section(n.Buffer)
				err = e.sched.zero(n.Buffer, lo, shape)
			}
		case *codegen.InitPass:
			err = e.sched.init(n.Array)
		case *codegen.Compute:
			if e.computes {
				err = e.sched.compute(n)
			}
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
func (e *engine) walkLoop(l *codegen.Loop) error {
	pruned := e.opt.DryRun && !e.hasIO[l]
	if pruned && !e.computes {
		return nil
	}
	e.loopStack = append(e.loopStack, loopPos{index: l.Index})
	if pruned {
		e.base[l.Index] = 0
		e.dryLoops = append(e.dryLoops, l)
		if err := e.walk(l.Body); err != nil {
			return err
		}
		e.dryLoops = e.dryLoops[:len(e.dryLoops)-1]
	} else {
		for b := int64(0); b < l.Range; b += l.Tile {
			if err := e.ctxErr(); err != nil {
				return err
			}
			e.setBase(l.Index, b)
			if err := e.walk(l.Body); err != nil {
				return err
			}
		}
	}
	e.loopStack = e.loopStack[:len(e.loopStack)-1]
	delete(e.base, l.Index)
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

// section computes the disk section a buffer maps to at the current tile
// bases: tile dims clip at the array boundary, full dims span the range.
func (e *engine) section(buf *codegen.Buffer) (lo, shape []int64) {
	r := len(buf.Dims)
	lo = make([]int64, 2*r)
	lo, shape = lo[:r:r], lo[r:]
	for i, d := range buf.Dims {
		n := e.plan.Prog.Ranges[d.Index]
		switch d.Class {
		case placement.ExtTile:
			b := e.base[d.Index]
			t := e.plan.Tiles[d.Index]
			lo[i] = b
			shape[i] = min(t, n-b)
		case placement.ExtFull:
			lo[i] = 0
			shape[i] = n
		default:
			lo[i] = e.base[d.Index] // ExtOne: single current element
			shape[i] = 1
		}
	}
	return lo, shape
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

// initTiles returns the named disk array and the tile extent per array
// dim of its init pass (nil for an array the plan does not declare).
func (e *engine) initTiles(name string) (*codegen.DiskArray, []int64) {
	for a := range e.plan.DiskArrays {
		if da := &e.plan.DiskArrays[a]; da.Name == name {
			tiles := make([]int64, len(da.Dims))
			for i, idx := range da.Indices {
				tiles[i] = e.plan.Tiles[idx]
			}
			return da, tiles
		}
	}
	return nil, nil
}

func dimsToInt64(dims []int) []int64 {
	out := make([]int64, len(dims))
	for i, d := range dims {
		out[i] = int64(d)
	}
	return out
}

// initPass zero-fills a disk array tile by tile, charging the writes.
func (e *engine) initPass(da *codegen.DiskArray, tiles []int64) error {
	name := da.Name
	arr := e.arrs[name]
	lo := make([]int64, len(da.Dims))
	shape := make([]int64, len(da.Dims))
	var zero []float64
	var walk func(d int) error
	walk = func(d int) error {
		if d == len(da.Dims) {
			n := size(shape)
			var buf []float64
			if !e.opt.DryRun {
				if int64(len(zero)) < n {
					zero = make([]float64, n)
				}
				buf = zero[:n]
			}
			// lo/shape are mutated by the walk, but a retry fires
			// before the walk advances, so the closure sees the
			// tile it failed on.
			if err := e.retryOp(name, e.ioDur(false, shape), func() error {
				return arr.WriteSection(lo, shape, buf)
			}); err != nil {
				return fmt.Errorf("tile at lo=%v: %w", lo, err)
			}
			return nil
		}
		for b := int64(0); b < da.Dims[d]; b += tiles[d] {
			lo[d] = b
			shape[d] = min(tiles[d], da.Dims[d]-b)
			if err := walk(d + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0)
}
