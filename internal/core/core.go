// Package core is the public façade of the out-of-core synthesis system.
// It wires the full pipeline of the paper together: abstract program →
// loop tiling → candidate I/O placement enumeration → nonlinear
// constrained problem → solver (DCS or the uniform-sampling baseline) →
// concrete out-of-core code, and offers helpers to execute the result on
// simulated or real disks.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/dcs"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/loops"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sampling"
	"repro/internal/tensor"
	"repro/internal/tiling"
	"repro/internal/verify"
)

// Strategy selects the synthesis search algorithm.
type Strategy int

const (
	// DCS formulates the search as a nonlinear constrained problem and
	// solves it with the discrete constrained search solver (the paper's
	// approach).
	DCS Strategy = iota
	// UniformSampling is the baseline: log-uniform brute-force tile
	// search with greedy I/O placement.
	UniformSampling
	// DCSConstrainedAnnealing uses the CSA variant of the solver.
	DCSConstrainedAnnealing
	// RandomSearch is the ablation baseline: random feasible sampling.
	RandomSearch
)

// strategySpec is a strategy's complete solver configuration — the
// single source of truth mapping core strategies onto the solver. The
// synthesis path reads the spec instead of switching on the enum, so the
// two enums cannot drift (strategy_test.go checks the table is total and
// covers every solver strategy).
type strategySpec struct {
	name string
	// solverBased: the strategy runs through the dcs solver (as opposed
	// to the uniform-sampling baseline); solver is its dcs configuration.
	solverBased bool
	solver      dcs.Strategy
}

var strategySpecs = map[Strategy]strategySpec{
	DCS:                     {name: "DCS", solverBased: true, solver: dcs.DLM},
	UniformSampling:         {name: "uniform-sampling"},
	DCSConstrainedAnnealing: {name: "DCS-CSA", solverBased: true, solver: dcs.CSA},
	RandomSearch:            {name: "random-search", solverBased: true, solver: dcs.RandomSearch},
}

func (s Strategy) String() string {
	if sp, ok := strategySpecs[s]; ok {
		return sp.name
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// SolverStrategy returns the dcs strategy this core strategy configures,
// and whether the strategy is solver-based at all.
func (s Strategy) SolverStrategy() (dcs.Strategy, bool) {
	sp, ok := strategySpecs[s]
	if !ok || !sp.solverBased {
		return 0, false
	}
	return sp.solver, true
}

// Synthesis is the result of a synthesis run.
type Synthesis struct {
	// Strategy and Seed are the search configuration that produced the
	// plan. The synthesized program (after any fusion) is Model.Prog and
	// the target machine Model.Cfg.
	Strategy Strategy
	Seed     int64
	Tree     *tiling.Tree
	Model    *placement.Model
	Problem  *nlp.Problem
	X        []int64
	Assign   nlp.Assignment
	Plan     *codegen.Plan
	// GenTime is the code-generation (search) time — the quantity Table 2
	// compares across approaches.
	GenTime time.Duration
	// SolverEvals is the number of cost-model evaluations performed.
	SolverEvals int64
	// SolverLanes, WinnerLane, WinnerSeed, and WinnerStrategy describe the
	// portfolio race behind a solver-based synthesis: how many lanes ran
	// (1 without WithPortfolio, 0 for sampling) and which lane's point was
	// selected.
	SolverLanes    int
	WinnerLane     int
	WinnerSeed     int64
	WinnerStrategy string
	// CandidatesPruned counts placement candidates removed by the
	// warm-start incumbent lower bound before the solve (0 without
	// WithWarmStart).
	CandidatesPruned int
	// Pipeline models the double-buffered schedule in
	// MeasureSim/RunSim (set via WithPipeline; see
	// exec.Options.Pipeline).
	Pipeline bool
	// Metrics and Tracer, when non-nil (set via WithMetrics/WithTracer),
	// are attached to the execution helpers: the disk backend publishes
	// its I/O counters into Metrics, and the engine records its modelled
	// timeline into Tracer for Chrome-trace export.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// Log, when non-nil (set via WithLog), receives the structured
	// events of the execution helpers (exec retries and recovery).
	Log *obs.Log
	// Verify is the static plan verifier's report (set via WithVerify; nil
	// otherwise). A synthesis only returns with a clean report — a finding
	// fails the run — so it carries the verified schedule-walk statistics.
	Verify *verify.Report
}

// synthesize is the synthesis pipeline behind SynthesizeOpts: fuse, tile,
// enumerate placements, build the NLP, solve, generate code.
func synthesize(ctx context.Context, prog *loops.Program, c *config) (*Synthesis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if prog == nil {
		return nil, fmt.Errorf("core: no program")
	}
	if err := c.machine.Validate(); err != nil {
		return nil, err
	}
	sp, known := strategySpecs[c.strategy]
	if !known {
		return nil, fmt.Errorf("core: unknown strategy %v", c.strategy)
	}
	if c.autoFuse {
		prog = loops.FuseGreedy(prog)
	}
	tree, err := tiling.Tile(prog)
	if err != nil {
		return nil, err
	}
	model, err := placement.Enumerate(tree, c.machine, placement.Options{})
	if err != nil {
		return nil, err
	}
	prob := nlp.Build(model)

	// Warm start: remap the previous synthesis's solution into this
	// problem. When it is still feasible here, its objective is a valid
	// incumbent — re-enumerate with it as a lower-bound filter, shrinking
	// the cross-product candidate space, and remap the start into the
	// pruned problem (the incumbent's own candidates always survive the
	// filter, so the remap stays complete and feasible).
	var solveStart []int64
	if c.warm != nil && sp.solverBased {
		if x0, matched := prob.EncodeAssignment(c.warm.Assign); matched > 0 {
			solveStart = x0
			if prob.Feasible(x0) {
				popt := placement.Options{BoundIncumbent: prob.Objective(x0)}
				if m2, err2 := placement.Enumerate(tree, c.machine, popt); err2 == nil && m2.BoundPruned > 0 {
					p2 := nlp.Build(m2)
					if x2, matched2 := p2.EncodeAssignment(c.warm.Assign); matched2 == matched && p2.Feasible(x2) {
						model, prob, solveStart = m2, p2, x2
					}
				}
			}
		}
	}

	start := time.Now()
	var x []int64
	var evals int64
	var race dcs.Result
	if sp.solverBased {
		res, err := dcs.Run(ctx, prob,
			dcs.WithStrategy(sp.solver),
			dcs.WithSeed(c.seed),
			dcs.WithBudget(c.maxEvals),
			dcs.WithStart(solveStart),
			dcs.WithPatience(c.patience),
			dcs.WithPortfolio(c.portfolio),
			dcs.WithObserver(c.observer),
			dcs.WithMetrics(c.metrics),
			dcs.WithLog(c.log),
		)
		// The solver treats ctx expiry as a budget signal. A deadline
		// keeps that meaning here, but the caller's own cancellation must
		// surface as an error, not a silent truncated search.
		if errors.Is(ctx.Err(), context.Canceled) {
			return nil, fmt.Errorf("core: synthesis cancelled: %w", ctx.Err())
		}
		if err != nil {
			return nil, err
		}
		if !res.Feasible {
			return nil, fmt.Errorf("core: %v found no feasible configuration (memory limit %d too tight?)", c.strategy, c.machine.MemoryLimit)
		}
		x = res.X
		evals = int64(res.Evals)
		race = res
	} else {
		// The search stops on ctx like the solver, under the same rule.
		res, err := sampling.Search(ctx, prob, c.sampling)
		if errors.Is(ctx.Err(), context.Canceled) {
			return nil, fmt.Errorf("core: synthesis cancelled: %w", ctx.Err())
		}
		if err != nil {
			return nil, err
		}
		x = res.X
		evals = res.Combos
	}
	genTime := time.Since(start)
	if c.metrics != nil {
		// Self-describing BENCH rows: the snapshot carries the solve's
		// wall clock, eval count, and race outcome alongside the counters.
		c.metrics.Gauge("core.gen_seconds").Set(genTime.Seconds())
		c.metrics.Gauge("dcs.result.evals").Set(float64(evals))
		if sp.solverBased {
			c.metrics.Gauge("dcs.portfolio.lanes").Set(float64(race.Lanes))
			c.metrics.Gauge("dcs.portfolio.winner_lane").Set(float64(race.WinnerLane))
			c.metrics.Gauge("dcs.portfolio.winner_seed").Set(float64(race.WinnerSeed))
		}
	}

	plan, err := codegen.Generate(prob, x)
	if err != nil {
		return nil, err
	}
	var rep *verify.Report
	if c.verify {
		rep = verify.Check(plan)
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("core: synthesized plan failed verification: %w", err)
		}
	}
	syn := &Synthesis{
		Strategy:         c.strategy,
		Seed:             c.seed,
		Tree:             tree,
		Model:            model,
		Problem:          prob,
		X:                x,
		Assign:           prob.Decode(x),
		Plan:             plan,
		GenTime:          genTime,
		SolverEvals:      evals,
		CandidatesPruned: model.BoundPruned,
		Pipeline:         c.pipeline,
		Metrics:          c.metrics,
		Tracer:           c.tracer,
		Log:              c.log,
		Verify:           rep,
	}
	if sp.solverBased {
		syn.SolverLanes = race.Lanes
		syn.WinnerLane = race.WinnerLane
		syn.WinnerSeed = race.WinnerSeed
		syn.WinnerStrategy = race.WinnerStrategy.String()
	}
	return syn, nil
}

// AMPL renders the synthesis problem in the DCS solver's AMPL input
// format.
func (s *Synthesis) AMPL() string {
	var b strings.Builder
	if err := s.Problem.WriteAMPL(&b); err != nil {
		return ""
	}
	return b.String()
}

// Predicted returns the cost model's disk I/O time in seconds for the
// synthesized code (the Table 3 "predicted" column).
func (s *Synthesis) Predicted() float64 { return s.Plan.Predicted }

// execOptions returns the execution options the synthesis selects
// (pipelined or serial, plus observability sinks), with extra fields
// merged in.
func (s *Synthesis) execOptions(opt exec.Options) exec.Options {
	opt.Pipeline = s.Pipeline
	opt.Metrics = s.Metrics
	opt.Tracer = s.Tracer
	opt.Log = s.Log
	return opt
}

// attachObs connects the synthesis's metrics registry to a backend the
// execution helpers create.
func (s *Synthesis) attachObs(be disk.Backend) {
	if s.Metrics != nil {
		disk.AttachMetrics(be, s.Metrics)
	}
}

// MeasureSim executes the plan's I/O structure against the simulated disk
// at full array scale (dry run, no data) and returns the measured
// statistics (the Table 3 "measured" column).
func (s *Synthesis) MeasureSim() (disk.Stats, error) {
	res, err := s.MeasureSimFull()
	if err != nil {
		return disk.Stats{}, err
	}
	return res.Stats, nil
}

// MeasureSimFull is MeasureSim returning the full execution result; under
// WithPipeline, Result.Pipeline holds the modelled serial-vs-overlapped
// critical-path times.
func (s *Synthesis) MeasureSimFull() (*exec.Result, error) {
	be := disk.NewSim(s.Model.Cfg.Disk, false)
	defer be.Close()
	s.attachObs(be)
	return exec.Run(s.Plan, be, nil, s.execOptions(exec.Options{DryRun: true}))
}

// RunSim executes the plan with real data on the in-memory simulated disk
// and returns the outputs and measured statistics. Suitable for small
// (test-scale) problems only.
func (s *Synthesis) RunSim(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, disk.Stats, error) {
	be := disk.NewSim(s.Model.Cfg.Disk, true)
	defer be.Close()
	s.attachObs(be)
	res, err := exec.Run(s.Plan, be, inputs, s.execOptions(exec.Options{}))
	if err != nil {
		return nil, disk.Stats{}, err
	}
	return res.Outputs, res.Stats, nil
}

// Report renders a per-array breakdown of the chosen configuration:
// placement, buffer size, predicted bytes moved and I/O time.
func (s *Synthesis) Report() string {
	var b strings.Builder
	ranges := s.Model.Prog.Ranges
	tiles := s.Assign.Tiles
	d := s.Model.Cfg.Disk
	fmt.Fprintf(&b, "%-10s %-38s %14s %14s %14s %10s\n",
		"array", "placement", "buffer bytes", "read bytes", "write bytes", "io secs")
	names := make([]string, 0, len(s.Model.Choices))
	byName := map[string]*placement.Candidate{}
	for i := range s.Model.Choices {
		name := s.Model.Choices[i].Name
		names = append(names, name)
		byName[name] = s.Assign.Selected[name]
	}
	for _, name := range names {
		c := byName[name]
		if c == nil {
			continue
		}
		buf, rd, wr, secs := 0.0, 0.0, 0.0, 0.0
		for _, t := range c.MemBytes() {
			buf += t.Eval(tiles, ranges)
		}
		for _, t := range c.ReadBytes() {
			v := t.Eval(tiles, ranges)
			rd += v
			secs += v / d.ReadBandwidth
		}
		for _, t := range c.WriteBytes() {
			v := t.Eval(tiles, ranges)
			wr += v
			secs += v / d.WriteBandwidth
		}
		for _, t := range append(c.ReadOps(), c.WriteOps()...) {
			secs += float64(t.Eval(tiles, ranges) * d.SeekTime)
		}
		fmt.Fprintf(&b, "%-10s %-38s %14.0f %14.0f %14.0f %10.1f\n",
			name, c.Label, buf, rd, wr, secs)
	}
	return b.String()
}

// Summary renders a human-readable synthesis report.
func (s *Synthesis) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "synthesis of %q via %v\n", s.Model.Prog.Name, s.Strategy)
	fmt.Fprintf(&b, "  code generation time: %v (%d cost evaluations)\n", s.GenTime, s.SolverEvals)
	fmt.Fprintf(&b, "  predicted disk I/O time: %.1f s\n", s.Predicted())
	fmt.Fprintf(&b, "  buffer memory: %d bytes (limit %d)\n", s.Plan.MemoryBytes(), s.Model.Cfg.MemoryLimit)
	if s.Model.Cfg.FlopRate > 0 {
		fmt.Fprintf(&b, "  balance: %s\n", s.Balance())
	}
	b.WriteString(s.Assign.Describe())
	return b.String()
}
