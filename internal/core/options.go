package core

// This file is the entry point of the synthesis system:
// SynthesizeOpts(ctx, program, ...Option). Every setting reaches the
// pipeline through an Option; there is no other way in.

import (
	"context"
	"time"

	"repro/internal/dcs"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sampling"
)

// config collects the effect of the options: the synthesis inputs, the
// solver's observability wiring, and the execution settings attached to
// the result.
type config struct {
	machine  machine.Config
	strategy Strategy
	seed     int64
	maxEvals int
	maxTime  time.Duration
	sampling sampling.Options
	autoFuse bool

	observer dcs.Observer
	metrics  *obs.Registry
	log      *obs.Log
	curve    *obs.Convergence
	verify   bool
	// portfolio races k solver lanes; patience stops a search once the
	// best feasible point stalls; warm seeds the solver from a previous
	// synthesis (and prunes candidates against its objective as an
	// incumbent bound).
	portfolio int
	patience  int
	warm      *Synthesis

	pipeline bool
	tracer   *obs.Tracer
}

// Option configures SynthesizeOpts.
type Option func(*config)

// WithMachine targets the synthesis at a machine model (default:
// machine.OSCItanium2, the paper's evaluation node).
func WithMachine(m machine.Config) Option {
	return func(c *config) { c.machine = m }
}

// WithStrategy selects the search algorithm (default DCS).
func WithStrategy(s Strategy) Option {
	return func(c *config) { c.strategy = s }
}

// WithSeed makes solver-based strategies deterministic.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithMaxEvals bounds the solver's cost-model evaluation budget.
func WithMaxEvals(n int) Option {
	return func(c *config) { c.maxEvals = n }
}

// WithMaxTime bounds the solver wall clock; it is layered on the caller's
// context as a deadline, so expiry returns the best point found rather
// than an error.
func WithMaxTime(d time.Duration) Option {
	return func(c *config) { c.maxTime = d }
}

// WithSampling configures the uniform-sampling strategy.
func WithSampling(o sampling.Options) Option {
	return func(c *config) { c.sampling = o }
}

// WithAutoFuse applies greedy loop fusion before tiling (programs lowered
// from arbitrary contraction specs; the paper's workloads arrive
// pre-fused).
func WithAutoFuse() Option {
	return func(c *config) { c.autoFuse = true }
}

// WithPipeline makes MeasureSim/RunSim/RunFiles model the double-buffered
// schedule (exec.Options.Pipeline): execution and results are the serial
// run's, and Result.Pipeline reports the modelled serial vs overlapped
// timeline, with reads prefetched and writes retired behind compute.
func WithPipeline() Option {
	return func(c *config) { c.pipeline = true }
}

// WithObserver streams solver convergence events (per-restart and
// per-improvement telemetry) to the callback during solver-based
// synthesis. The observer is invoked synchronously from the solver loop.
func WithObserver(o Observer) Option {
	return func(c *config) { c.observer = o }
}

// WithMetrics publishes solver counters (dcs.evals, dcs.restarts,
// dcs.improvements) into the registry during synthesis and attaches the
// registry to the execution helpers' disk backends and engine, so
// MeasureSim/RunSim/RunFiles report I/O and pipeline instrumentation into
// the same snapshot.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *config) { c.metrics = reg }
}

// WithTracer records the execution helpers' modelled timelines
// (MeasureSim/RunSim/RunFiles) as obs spans for Chrome-trace export.
func WithTracer(tr *obs.Tracer) Option {
	return func(c *config) { c.tracer = tr }
}

// WithLog streams the synthesis's structured events into the event
// log: the solver's restarts, improvements, and lane wins during the
// solve, and the execution helpers' retry and recovery events
// afterwards (nil disables).
func WithLog(l *obs.Log) Option {
	return func(c *config) { c.log = l }
}

// WithPortfolio races k independently seeded solver lanes (cycling the
// DLM, CSA, and random strategies) in deterministic lockstep rounds
// during solver-based synthesis; the first lane to converge on a
// feasible point stops the race. The evaluation budget is split across
// lanes, so total work never exceeds a single-seed solve (k ≤ 1 keeps
// the plain search).
func WithPortfolio(k int) Option {
	return func(c *config) { c.portfolio = k }
}

// WithWarmStart seeds the solver from a previous synthesis of the same
// program shape: the prior solution's tile sizes and placement choices
// are remapped into the new problem (by loop-index name and candidate
// label) and used as the starting point. When the remapped point is
// still feasible, its objective additionally acts as an incumbent: the
// placement enumeration prunes every candidate whose analytic cost lower
// bound already exceeds it. This is what lets a sweep over memory limits
// or machine models re-solve incrementally instead of cold.
func WithWarmStart(prev *Synthesis) Option {
	return func(c *config) { c.warm = prev }
}

// WithPatience stops a solver-based synthesis once a feasible point
// exists and no improvement was recorded for n cost evaluations — the
// deterministic early stop that makes warm-started re-solves finish far
// under budget (0 disables).
func WithPatience(n int) Option {
	return func(c *config) { c.patience = n }
}

// WithVerify runs the static plan verifier (internal/verify) over the
// generated plan before returning: dataflow, resource, and schedule
// legality are re-derived from the plan itself, independently of the
// placement enumerator and the NLP constraints that produced it. A
// finding fails the synthesis; a clean report is attached as
// Synthesis.Verify.
func WithVerify() Option {
	return func(c *config) { c.verify = true }
}

// WithConvergence records the solver's convergence curve (restart,
// improvement, and final events) into curve for later export. It composes
// with WithObserver: both receive every event.
func WithConvergence(curve *obs.Convergence) Option {
	return func(c *config) { c.curve = curve }
}

// SynthesizeOpts runs the full synthesis pipeline for a program under a
// context, configured by functional options. Cancellation during the
// solve aborts the synthesis with the context's error; the solver itself
// treats the context as a budget signal (WithMaxTime is layered on the
// context as a deadline and still returns the best point found).
func SynthesizeOpts(ctx context.Context, prog *loops.Program, opts ...Option) (*Synthesis, error) {
	c := config{machine: machine.OSCItanium2()}
	for _, o := range opts {
		o(&c)
	}
	return synthesize(ctx, prog, &c)
}

// Observer receives solver convergence events during synthesis (the
// solver package's event stream, re-exported so call sites need only
// core).
type Observer = dcs.Observer
