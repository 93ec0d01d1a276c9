// Package ooc is the user-facing application layer of the synthesis
// system: out-of-core tensor operations over disk-resident arrays. Given
// arrays that already live on a disk backend, Contract synthesizes and
// executes optimized out-of-core code for an einsum-style contraction —
// index ranges are inferred from the arrays themselves — and MatMul is
// the matrix-product convenience wrapper. This is the interface a
// downstream user adopts without touching the compiler pipeline.
package ooc

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/health"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Options tune a contraction run.
type Options struct {
	// Machine models the node; zero value uses machine.OSCItanium2().
	Machine machine.Config
	// Seed for the DCS solver (deterministic synthesis).
	Seed int64
	// MaxEvals bounds the solver (0: default).
	MaxEvals int
	// Portfolio races that many independently seeded solver lanes during
	// synthesis, first feasible convergence wins (≤ 1: single lane). The
	// evaluation budget is split across lanes.
	Portfolio int
	// Workers parallelizes in-memory compute.
	Workers int
	// KeepUnfused disables the greedy fusion pass.
	KeepUnfused bool
	// Pipeline models the double-buffered schedule (exec.Options.Pipeline):
	// the contraction executes exactly as a serial one, and
	// Result.Pipeline reports the modelled serial vs overlapped timeline.
	Pipeline bool
	// Metrics, if non-nil, receives the run's instrumentation: solver
	// counters from the synthesis and I/O + pipeline counters from the
	// execution (the backend is attached via disk.AttachMetrics when it
	// supports publishing).
	Metrics *obs.Registry
	// Tracer, if non-nil, records the execution's modelled timeline as
	// obs spans for Chrome-trace export.
	Tracer *obs.Tracer
	// Log, if non-nil, receives the run's structured events: solver
	// progress during synthesis, retries and recovery during execution,
	// and scrub findings afterwards.
	Log *obs.Log
	// Observer, if non-nil, streams solver convergence events during the
	// synthesis step.
	Observer core.Observer
	// Verify runs the static plan verifier over the synthesized plan
	// before execution; a verification finding fails the contraction. The
	// report is available as Result.Synthesis.Verify.
	Verify bool
	// Retry, if non-nil, retries transient disk faults at the section-I/O
	// layer with capped exponential backoff (disk.DefaultRetryPolicy is
	// the usual choice).
	Retry *disk.RetryPolicy
	// Recovery, if non-nil, executes through exec.RunResilient: a
	// persistent fault rolls the run back to its last checkpoint and
	// resumes, within the configured restart budget; a verified-read
	// checksum failure is healed (inputs re-staged, intermediates
	// recomputed from their producer unit) before resuming. Recovery also
	// enables the durability discipline: the backend is synced at every
	// unit barrier before the checkpoint advances. The account of what
	// recovery did is Result.Recovery.
	Recovery *exec.RecoveryOptions
	// Scrub sweeps the backend's checksum index after the run completes,
	// verifying every block of every array against its stored contents.
	// The report is Result.Scrub; a defective block does not fail the
	// contraction — callers inspect the report. Requires a backend with
	// integrity metadata (FileStore or Sim, possibly wrapped).
	Scrub bool
	// ScrubRepair makes the post-run scrub heal defective blocks: on a
	// replicated backend (ring.Store) a defective copy is first rebuilt
	// from a healthy replica (ScrubReport.HealedFromReplica counts
	// these); only copies with no healthy peer fall back to rebuilding
	// the checksum index. Implies Scrub.
	ScrubRepair bool
	// ScrubSchedule, when > 0, replaces the post-run sweep with
	// background scrub scheduling: every ScrubSchedule unit barriers the
	// most suspect not-yet-covered array is verified (and, with
	// ScrubRepair, healed) mid-run, and the remainder is drained at run
	// end — one full pass spread across the run, suspect arrays first
	// (suspicion comes from the backend when it implements
	// health.Prioritizer, e.g. ring.Store). Result.Scrub then reports
	// the pass's coverage: each array is verified once, at its scheduled
	// slice, so corruption landing after an array's slice is caught by
	// the next run's pass rather than this one's.
	ScrubSchedule int
}

// Result reports a contraction run.
type Result struct {
	// Synthesis is the full synthesis artifact (plan, assignment, costs).
	Synthesis *core.Synthesis
	// Stats are the I/O statistics of the execution.
	Stats disk.Stats
	// Pipeline holds the modelled serial-vs-overlapped timeline (nil
	// unless Options.Pipeline).
	Pipeline *exec.PipelineStats
	// Retry tallies faults seen and retries spent during execution.
	Retry exec.RetryStats
	// Recovery reports checkpoint restarts (nil unless Options.Recovery).
	Recovery *exec.RecoveryReport
	// Scrub is the post-run integrity sweep (nil unless Options.Scrub).
	Scrub *disk.ScrubReport
}

// Contract evaluates an einsum-style contraction over arrays resident on
// the backend, e.g.
//
//	ooc.Contract(be, "C[i,j] = A[i,k] * B[k,j]", opt)
//
// Every operand must already exist on the backend; the output array is
// created on it. Index ranges are inferred from the operands' extents and
// checked for consistency.
func Contract(be disk.Backend, spec string, opt Options) (*Result, error) {
	if opt.Machine.MemoryLimit == 0 {
		opt.Machine = machine.OSCItanium2()
	}
	// First parse with placeholder ranges to learn the operand shapes.
	c, err := parseWithInferredRanges(be, spec)
	if err != nil {
		return nil, err
	}
	plan, err := expr.Minimize(c, c.Out.Name+"_t")
	if err != nil {
		return nil, err
	}
	prog, err := loops.FromPlan(plan)
	if err != nil {
		return nil, err
	}
	if !opt.KeepUnfused {
		prog = loops.FuseGreedy(prog)
	}
	copts := []core.Option{
		core.WithMachine(opt.Machine),
		core.WithStrategy(core.DCS),
		core.WithSeed(opt.Seed),
		core.WithMaxEvals(opt.MaxEvals),
	}
	if opt.Metrics != nil {
		copts = append(copts, core.WithMetrics(opt.Metrics))
	}
	if opt.Observer != nil {
		copts = append(copts, core.WithObserver(opt.Observer))
	}
	if opt.Portfolio > 1 {
		copts = append(copts, core.WithPortfolio(opt.Portfolio))
	}
	if opt.Verify {
		copts = append(copts, core.WithVerify())
	}
	if opt.Log != nil {
		copts = append(copts, core.WithLog(opt.Log))
	}
	s, err := core.SynthesizeOpts(context.Background(), prog, copts...)
	if err != nil {
		return nil, err
	}
	if opt.Metrics != nil {
		disk.AttachMetrics(be, opt.Metrics)
	}
	xopt := exec.Options{
		OpenInputs: true,
		NoFetch:    true, // results stay disk-resident
		Workers:    opt.Workers,
		Pipeline:   opt.Pipeline,
		Metrics:    opt.Metrics,
		Tracer:     opt.Tracer,
		Log:        opt.Log,
		Retry:      opt.Retry,
	}
	var sched *health.ScrubScheduler
	if opt.ScrubSchedule > 0 {
		sched, err = health.NewScrubScheduler(be, health.SchedOptions{
			Interval: opt.ScrubSchedule,
			Repair:   opt.ScrubRepair,
			Metrics:  opt.Metrics,
			Log:      opt.Log,
		})
		if err != nil {
			return nil, fmt.Errorf("ooc: scrub schedule: %w", err)
		}
		xopt.OnUnit = sched.Tick
	}
	var res *exec.Result
	if opt.Recovery != nil {
		res, _, err = exec.RunResilient(context.Background(), s.Plan, be, nil, xopt, *opt.Recovery)
	} else {
		res, err = exec.Run(s.Plan, be, nil, xopt)
	}
	if err != nil {
		return nil, err
	}
	out := &Result{Synthesis: s, Stats: res.Stats, Pipeline: res.Pipeline,
		Retry: res.Retry, Recovery: res.Recovery}
	switch {
	case sched != nil:
		if err := sched.Drain(); err != nil {
			return nil, fmt.Errorf("ooc: scheduled scrub drain: %w", err)
		}
		out.Scrub = sched.Report()
	case opt.Scrub || opt.ScrubRepair:
		rep, err := disk.Scrub(be, disk.ScrubOptions{Repair: opt.ScrubRepair, Metrics: opt.Metrics, Log: opt.Log})
		if err != nil {
			return nil, fmt.Errorf("ooc: post-run scrub: %w", err)
		}
		out.Scrub = rep
	}
	return out, nil
}

// parseWithInferredRanges parses the spec and infers every index's extent
// from the operand arrays on the backend.
func parseWithInferredRanges(be disk.Backend, spec string) (*expr.Contraction, error) {
	probe, err := expr.ParseStructure(spec)
	if err != nil {
		return nil, err
	}
	ranges := map[string]int64{}
	for _, op := range probe.Operands {
		arr, err := be.Open(op.Name)
		if err != nil {
			return nil, fmt.Errorf("ooc: operand %q: %w", op.Name, err)
		}
		dims := arr.Dims()
		if len(dims) != len(op.Indices) {
			return nil, fmt.Errorf("ooc: operand %q has rank %d on disk, spec uses %d indices", op.Name, len(dims), len(op.Indices))
		}
		for i, x := range op.Indices {
			if prev, ok := ranges[x]; ok && prev != dims[i] {
				return nil, fmt.Errorf("ooc: index %q has conflicting extents %d and %d", x, prev, dims[i])
			}
			ranges[x] = dims[i]
		}
	}
	for _, x := range probe.Out.Indices {
		if _, ok := ranges[x]; !ok {
			return nil, fmt.Errorf("ooc: output index %q not bound by any operand", x)
		}
	}
	return expr.Parse(spec, ranges)
}

// MatMul computes C = A × B for 2-D disk-resident arrays.
func MatMul(be disk.Backend, cName, aName, bName string, opt Options) (*Result, error) {
	return Contract(be, fmt.Sprintf("%s[i__,j__] = %s[i__,k__] * %s[k__,j__]", cName, aName, bName), opt)
}
