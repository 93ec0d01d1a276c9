// Package dcs implements the Discrete Constrained Search solver used for
// out-of-core code synthesis: a discrete-space nonlinear constrained
// minimizer in the style of Wah et al.'s DCS package, built on the theory
// of discrete Lagrange multipliers. The solver performs first-order
// descent in the variable space of the discrete Lagrangian
//
//	L(x, μ) = f(x) + Σ_i μ_i g_i(x)
//
// (g_i ≥ 0 are constraint violations) interleaved with multiplier ascent
// on violated constraints, so that discrete saddle points — which are
// exactly the constrained local minima — are reached. A constrained
// simulated annealing (CSA) strategy and a random-sampling baseline are
// provided for the solver ablation study.
package dcs

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/obs"
)

// Event describes one solver progress event delivered to an Observer.
type Event struct {
	// Kind is "restart" (a new start point begins), "improvement" (a new
	// best feasible point was recorded), or "final" (the search ended).
	Kind string
	// Lane is the portfolio lane the event comes from (0 for a
	// single-lane solve).
	Lane int
	// Restart is the 1-based restart the event occurred in.
	Restart int
	// Evals is the evaluation count at the event.
	Evals int
	// Best is the best feasible objective so far (+Inf while none exists).
	// For "final" it equals Result.Objective.
	Best float64
	// Feasible reports whether a feasible point exists at the event.
	Feasible bool
	// MaxViolation is the largest single constraint violation at the
	// event's reference point (0 when it is feasible).
	MaxViolation float64
	// MuNorm is the L2 norm of the current run's Lagrange multipliers
	// (0 for strategies without multipliers, e.g. random search).
	MuNorm float64
}

// Observer receives solver progress events. Callbacks run synchronously
// on the solver goroutine, in event order; keep them cheap.
type Observer func(Event)

// Problem is a discrete constrained minimization problem. Variables are
// integers within per-variable inclusive bounds.
type Problem interface {
	// Dim returns the number of decision variables.
	Dim() int
	// Bounds returns the inclusive range of variable i.
	Bounds(i int) (lo, hi int64)
	// Objective evaluates the function to minimize.
	Objective(x []int64) float64
	// Violations returns non-negative constraint violations (0 when
	// satisfied). The slice length must be constant across calls.
	Violations(x []int64) []float64
}

// Group describes a block of binary variables x[Offset:Offset+Len] that
// jointly encode one categorical choice with codes 0..Codes-1: bit b of
// the code stored at x[Offset+b].
type Group struct {
	Offset int
	Len    int
	Codes  int64
}

// GroupedProblem optionally exposes categorical variable groups; the
// solver then adds moves that reassign a whole group at once, which is
// essential when single-bit flips of an encoded choice are meaningless.
type GroupedProblem interface {
	Problem
	Groups() []Group
}

// Evaluator computes f and g for one solver. The solver makes every
// evaluation of a search through its own Evaluator, so an implementation
// may keep state between calls (the previous point, cached partial
// values) and recompute only what the new point changes. Contract:
//   - Eval(x) returns exactly Objective(x) and Violations(x), to the bit;
//   - the returned slice is owned by the evaluator and valid only until
//     its next call: the solver reads it immediately and never retains
//     it;
//   - one Evaluator serves one solver goroutine; portfolio lanes each
//     make their own.
type Evaluator interface {
	Eval(x []int64) (f float64, g []float64)
}

// EvaluatingProblem optionally supplies per-solver evaluators; problems
// without one are evaluated through Objective and Violations.
type EvaluatingProblem interface {
	Problem
	NewEvaluator() Evaluator
}

// Strategy selects the search algorithm.
type Strategy int

const (
	// DLM is the discrete Lagrange-multiplier descent/ascent method (the
	// default, corresponding to the DCS package's core algorithm).
	DLM Strategy = iota
	// CSA is constrained simulated annealing: stochastic variable moves
	// with Metropolis acceptance on the Lagrangian and probabilistic
	// multiplier ascent.
	CSA
	// RandomSearch samples random points and keeps the best feasible one;
	// the ablation baseline.
	RandomSearch
)

func (s Strategy) String() string {
	switch s {
	case DLM:
		return "DLM"
	case CSA:
		return "CSA"
	case RandomSearch:
		return "random"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// options is the internal carrier of a solve's configuration; every
// RunOption maps onto it.
type options struct {
	Strategy Strategy
	// Seed makes the search deterministic.
	Seed int64
	// MaxEvals bounds the number of objective/constraint evaluations
	// (default 200000).
	MaxEvals int
	// Restarts is the number of independent starts: 8, halved per
	// portfolio lane.
	Restarts int
	// Start, if non-nil, seeds the first restart.
	Start []int64
	// Patience, when positive, stops the search once a feasible point
	// exists and no improvement has been recorded for that many
	// evaluations — the deterministic early-stop behind warm-started
	// incremental re-solves.
	Patience int
	// Portfolio, when > 1, races that many independently seeded lanes
	// (cycling DLM/CSA/random strategies) in lockstep rounds on a
	// goroutine pool; the first lane to converge on a feasible point
	// stops the race and the best boundary snapshot wins (deterministic
	// seed-order tie-break). The evaluation budget is split across lanes.
	Portfolio int
	// Observer, if non-nil, receives per-restart, per-improvement, and
	// final events — the data behind a convergence curve.
	Observer Observer
	// Metrics, if non-nil, receives dcs.evals / dcs.restarts /
	// dcs.improvements counters.
	Metrics *obs.Registry
	// Log, if non-nil, receives the solver's structured events (system
	// "dcs": solve.restart, solve.improvement, solve.final, lane.win).
	Log *obs.Log

	// gate, when non-nil, is invoked every gateEvery evaluations with a
	// snapshot of the lane state; returning false stops the search at
	// that boundary. It is the portfolio driver's lockstep hook — the
	// stop decision stays a pure function of eval counts, never of
	// wall-clock, which is what keeps racing deterministic.
	gate      func(laneSnapshot) bool
	gateEvery int
	// lane tags this solve's observer events with a portfolio lane index.
	lane int
	// logBuf, when non-nil, captures the events that would have gone to
	// Log; the portfolio coordinator flushes the buffers in lane order
	// at lockstep barriers so the merged event stream is deterministic.
	logBuf *laneLog
}

// laneLog is a portfolio lane's private event queue. Only the lane
// goroutine appends, and only while the coordinator knows the lane is
// between barriers; the coordinator drains it while the lane is parked
// at its gate (or finished), so no lock is needed.
type laneLog struct {
	enabled bool
	events  []Event
}

func (o options) withDefaults() options {
	if o.MaxEvals <= 0 {
		o.MaxEvals = 200000
	}
	if o.Restarts <= 0 {
		o.Restarts = 8
	}
	return o
}

// muGrowth scales the multiplier ascent steps of DLM and CSA.
const muGrowth = 1.5

// Result is the outcome of a solve.
type Result struct {
	// X is the best feasible point found (or the least-infeasible point if
	// none was feasible).
	X []int64
	// Objective is f(X).
	Objective float64
	// Feasible reports whether X satisfies all constraints.
	Feasible bool
	// Evals is the number of objective evaluations performed.
	Evals int
	// Restarts actually performed.
	Restarts int
	// Lanes is the number of portfolio lanes raced (1 for a plain solve);
	// WinnerLane, WinnerSeed, and WinnerStrategy identify the lane whose
	// point was selected.
	Lanes          int
	WinnerLane     int
	WinnerSeed     int64
	WinnerStrategy Strategy
}

// solve minimizes the problem under a context. Cancellation and deadline
// expiry stop the search gracefully: the best point found so far is
// returned, never an error — a budget signal, exactly like MaxEvals.
func solve(ctx context.Context, p Problem, opt options) (Result, error) {
	opt = opt.withDefaults()
	if p.Dim() == 0 {
		return Result{}, fmt.Errorf("dcs: empty problem")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Strategy < DLM || opt.Strategy > RandomSearch {
		return Result{}, fmt.Errorf("dcs: unknown strategy %v", opt.Strategy)
	}
	if opt.Portfolio > 1 {
		return solvePortfolio(ctx, p, opt)
	}
	s := newSolver(ctx, p, opt)
	s.search()
	if s.best == nil && s.leastBadX == nil {
		// The budget (context) expired before any point was evaluated.
		return Result{}, fmt.Errorf("dcs: search stopped before evaluating any point: %w", ctx.Err())
	}
	if s.best == nil {
		// No feasible point found anywhere: report the least-infeasible.
		res := Result{
			X:              s.leastBadX,
			Objective:      s.p.Objective(s.leastBadX),
			Feasible:       false,
			Evals:          s.evals,
			Restarts:       s.restarts,
			Lanes:          1,
			WinnerSeed:     opt.Seed,
			WinnerStrategy: opt.Strategy,
		}
		s.emit("final", res.Objective, false, maxOf(s.p.Violations(s.leastBadX)))
		return res, nil
	}
	res := Result{
		X:              s.best,
		Objective:      s.bestF,
		Feasible:       true,
		Evals:          s.evals,
		Restarts:       s.restarts,
		Lanes:          1,
		WinnerSeed:     opt.Seed,
		WinnerStrategy: opt.Strategy,
	}
	s.emit("final", res.Objective, true, 0)
	return res, nil
}

// newSolver builds the per-solve scratch state. opt must already have
// defaults applied.
func newSolver(ctx context.Context, p Problem, opt options) *solver {
	s := &solver{
		p:   p,
		opt: opt,
		ctx: ctx,
		rng: rand.New(rand.NewSource(opt.Seed)),
	}
	if gp, ok := p.(GroupedProblem); ok {
		s.groups = gp.Groups()
	}
	if ep, ok := p.(EvaluatingProblem); ok {
		s.ev = ep.NewEvaluator()
	}
	s.vars = make([]varRange, p.Dim())
	for i := range s.vars {
		v := &s.vars[i]
		v.lo, v.hi = p.Bounds(i)
		v.llo, v.lhi = math.Log(float64(v.lo)+1), math.Log(float64(v.hi)+1)
	}
	// Cache the instrument pointers: eval() is the solver's hot path.
	s.mEvals = opt.Metrics.Counter("dcs.evals")
	s.mRestarts = opt.Metrics.Counter("dcs.restarts")
	s.mImprovements = opt.Metrics.Counter("dcs.improvements")
	return s
}

// search runs the configured strategy to exhaustion of its budget (or a
// gate stop). The caller assembles the Result from the solver state.
func (s *solver) search() {
	switch s.opt.Strategy {
	case CSA:
		s.run(s.csaOnce)
	case RandomSearch:
		s.randomSearch()
	default:
		s.run(s.dlmOnce)
	}
}

// maxOf returns the largest element (0 for an empty slice).
func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

type solver struct {
	p   Problem
	opt options
	//lint:ignore ctxfield the solver struct is per-Solve scratch state, never retained past the call
	ctx    context.Context
	rng    *rand.Rand
	groups []Group
	ev     Evaluator // nil: evaluate through Objective and Violations
	vars   []varRange

	evals    int
	restarts int
	// lastImprove is the eval count of the most recent best-feasible
	// improvement (for the Patience option).
	lastImprove int
	// stopped is set when a gate callback vetoes continuing; the search
	// unwinds at the next budget check and emits no further events.
	stopped bool

	best  []int64 // best feasible
	bestF float64

	leastBadX []int64 // fallback when nothing is feasible
	leastBad  float64 // total violation at leastBadX

	// flips is DLM's record of the single-bit flips it scored, kept
	// across restarts.
	flips flipScores

	// curMu aliases the multipliers of the strategy run in progress, so
	// observer events can report their norm; nil outside multiplier
	// strategies.
	curMu []float64

	mEvals, mRestarts, mImprovements *obs.Counter
}

// varRange caches a variable's bounds and their log-scale ends, between
// which randomValue samples wide ranges.
type varRange struct {
	lo, hi   int64
	llo, lhi float64
}

// emit delivers a progress event to the observer and the structured
// event log, attaching the current restart, eval count, and multiplier
// norm.
func (s *solver) emit(kind string, best float64, feasible bool, maxViol float64) {
	wantLog := s.opt.Log.Enabled(obs.LevelInfo) || (s.opt.logBuf != nil && s.opt.logBuf.enabled)
	if s.stopped || (s.opt.Observer == nil && !wantLog) {
		return
	}
	muNorm := 0.0
	for _, m := range s.curMu {
		muNorm += float64(m * m)
	}
	e := Event{
		Kind:         kind,
		Lane:         s.opt.lane,
		Restart:      s.restarts,
		Evals:        s.evals,
		Best:         best,
		Feasible:     feasible,
		MaxViolation: maxViol,
		MuNorm:       math.Sqrt(muNorm),
	}
	if s.opt.Observer != nil {
		s.opt.Observer(e)
	}
	if s.opt.logBuf != nil {
		// Portfolio lane: events queue locally and the coordinator
		// flushes them in lane order at the next lockstep barrier, so
		// the merged stream never depends on goroutine scheduling.
		if s.opt.logBuf.enabled {
			s.opt.logBuf.events = append(s.opt.logBuf.events, e)
		}
		return
	}
	logSolveEvent(s.opt.Log, e)
}

// logSolveEvent mirrors a solver progress event into the structured
// event log.
func logSolveEvent(l *obs.Log, e Event) {
	if !l.Enabled(obs.LevelInfo) {
		return
	}
	l.Info("dcs", "solve."+e.Kind,
		obs.F("lane", e.Lane),
		obs.F("restart", e.Restart),
		obs.F("evals", e.Evals),
		obs.F("best", e.Best),
		obs.F("feasible", e.Feasible),
		obs.F("max_violation", e.MaxViolation))
}

// bestSoFar returns the best feasible objective (+Inf when none exists).
func (s *solver) bestSoFar() (float64, bool) {
	if s.best == nil {
		return math.Inf(1), false
	}
	return s.bestF, true
}

// eval computes f and g at x and records them. g may be the
// evaluator's buffer: callers use it before the next eval and never keep
// it.
func (s *solver) eval(x []int64) (float64, []float64) {
	var f float64
	var g []float64
	if s.ev != nil {
		f, g = s.ev.Eval(x)
	} else {
		f, g = s.p.Objective(x), s.p.Violations(x)
	}
	s.record(x, f, g)
	return f, g
}

// record charges one evaluation of x, whose objective and violations
// are f and g, to the budget: it counts it, keeps x if it is the best
// feasible or least-infeasible point so far, and consults the gate.
func (s *solver) record(x []int64, f float64, g []float64) {
	s.evals++
	s.mEvals.Inc()
	total := 0.0
	for _, v := range g {
		total += v
	}
	if total == 0 {
		if s.best == nil || f < s.bestF {
			s.best = append([]int64(nil), x...)
			s.bestF = f
			s.lastImprove = s.evals
			s.mImprovements.Inc()
			s.emit("improvement", f, true, 0)
		}
	} else if s.leastBadX == nil || total < s.leastBad {
		s.leastBadX = append([]int64(nil), x...)
		s.leastBad = total
	}
	if s.opt.gate != nil && !s.stopped && s.evals%s.opt.gateEvery == 0 {
		if !s.opt.gate(s.snapshot()) {
			s.stopped = true
		}
	}
}

func (s *solver) budgetLeft() bool {
	if s.stopped || s.evals >= s.opt.MaxEvals {
		return false
	}
	if s.opt.Patience > 0 && s.best != nil && s.evals-s.lastImprove >= s.opt.Patience {
		return false
	}
	// Poll the context sparingly: ctx.Err takes a lock, an eval ~1µs.
	if s.evals%256 == 0 && s.ctx.Err() != nil {
		return false
	}
	return true
}

// run executes restarts of a single-start strategy until the budget is
// exhausted.
func (s *solver) run(once func(start []int64)) {
	for r := 0; r < s.opt.Restarts && s.budgetLeft(); r++ {
		s.restarts++
		s.mRestarts.Inc()
		s.curMu = nil
		best, feasible := s.bestSoFar()
		s.emit("restart", best, feasible, maxViolOf(s))
		once(s.startPoint(r))
	}
}

// maxViolOf reports the least-bad point's violation scale while no
// feasible point exists (for restart events), 0 once one does.
func maxViolOf(s *solver) float64 {
	if s.best != nil || s.leastBadX == nil {
		return 0
	}
	return maxOf(s.p.Violations(s.leastBadX))
}

// startPoint produces a diverse deterministic sequence of starts: the
// caller-provided point, all-minimum, all-maximum, then random
// (log-uniform for wide integer ranges).
func (s *solver) startPoint(r int) []int64 {
	n := s.p.Dim()
	x := make([]int64, n)
	switch {
	case r == 0 && s.opt.Start != nil:
		copy(x, s.opt.Start)
		s.clamp(x)
		return x
	case r <= 0:
		for i := range x {
			x[i] = s.vars[i].lo
		}
	case r == 1:
		for i := range x {
			x[i] = s.vars[i].hi
		}
	default:
		for i := range x {
			x[i] = s.randomValue(i)
		}
	}
	return x
}

func (s *solver) randomValue(i int) int64 {
	r := &s.vars[i]
	lo, hi := r.lo, r.hi
	if hi-lo <= 1 {
		return lo + s.rng.Int63n(hi-lo+1)
	}
	// Log-uniform over [lo, hi] (tile sizes live on a multiplicative scale).
	v := int64(math.Exp(r.llo+float64(s.rng.Float64()*(r.lhi-r.llo)))) - 1
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

func (s *solver) clamp(x []int64) {
	for i := range x {
		lo, hi := s.vars[i].lo, s.vars[i].hi
		if x[i] < lo {
			x[i] = lo
		}
		if x[i] > hi {
			x[i] = hi
		}
	}
}

// moves generates candidate values for variable i at current value v: the
// doubling/halving ladder, unit steps, bound jumps, and the trip-count
// boundaries ceil(hi/k) that matter for ceil-shaped cost terms.
func (s *solver) moves(i int, v int64, buf []int64) []int64 {
	lo, hi := s.vars[i].lo, s.vars[i].hi
	buf = buf[:0]
	if hi-lo == 1 { // binary: flip
		if v == lo {
			return append(buf, hi)
		}
		return append(buf, lo)
	}
	add := func(nv int64) {
		if nv < lo {
			nv = lo
		}
		if nv > hi {
			nv = hi
		}
		if nv == v {
			return
		}
		for _, e := range buf {
			if e == nv {
				return
			}
		}
		buf = append(buf, nv)
	}
	add(v * 2)
	add(v / 2)
	add(v + 1)
	add(v - 1)
	add(lo)
	add(hi)
	// Trip boundaries: with k = ceil(hi/v) trips, the largest value with
	// the same trip count is ceil(hi/k); k±1 trips give the neighbours.
	if v > 0 {
		k := (hi + v - 1) / v
		add((hi + k - 1) / k)
		if k > 1 {
			add((hi + k - 2) / (k - 1))
		}
		add((hi + k) / (k + 1))
	}
	return buf
}

// groupCode reads the code stored in a group's bits.
func groupCode(g Group, x []int64) int64 {
	var code int64
	for b := 0; b < g.Len; b++ {
		if x[g.Offset+b] != 0 {
			code |= 1 << b
		}
	}
	return code
}

// setGroupCode writes a code into a group's bits.
func setGroupCode(g Group, x []int64, code int64) {
	for b := 0; b < g.Len; b++ {
		x[g.Offset+b] = code >> b & 1
	}
}

// lagrangian computes L = f + μ·g.
func lagrangian(f float64, g, mu []float64) float64 {
	l := f
	for i, v := range g {
		l += float64(mu[i] * v)
	}
	return l
}
