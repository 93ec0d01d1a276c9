package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dcs"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tce"
	"repro/internal/tiling"
	"repro/internal/verify"
)

// synthSpec is one synthesis the benchmark asks for: the options it would
// pass to core.SynthesizeOpts.
type synthSpec struct {
	kind      string // ledger row: "dlm", "csa", "portfolio4", "warm"
	machine   machine.Config
	strategy  core.Strategy
	seed      int64
	portfolio int
	patience  int
	maxEvals  int       // 0: the solver's default budget
	warm      *synthOut // previous sweep point to warm-start from
	verify    bool
}

// synthOut is what the benchmark keeps of a synthesis.
type synthOut struct {
	plan   *codegen.Plan
	assign nlp.Assignment
	evals  int64
	wall   time.Duration
	// syn is the façade's result (untraced passes only); warm starts hand
	// it back to core.WithWarmStart.
	syn *core.Synthesis
}

// solveStats is the traced pass's record of one dcs.Run.
type solveStats struct {
	kind      string
	wall      time.Duration
	evals     int
	evalsTo1  int // evals at which the best feasible point came within 1 % of the final
	allocs    uint64
	allocByte uint64
	dim       int
	cands     int
	pruned    int
}

// planDigest hashes what identifies the plans of a pass — the tile sizes
// and the selected candidate label of every choice, plan by plan — into
// 48 bits, few enough to survive a float64 JSON number exactly. Two
// passes with the same digest executed the same plans.
func planDigest(plans []*synthOut) float64 {
	h := sha256.New()
	for _, s := range plans {
		var keys []string
		for name, t := range s.assign.Tiles {
			keys = append(keys, fmt.Sprintf("T%s=%d", name, t))
		}
		for name, c := range s.assign.Selected {
			keys = append(keys, fmt.Sprintf("%s:%s", name, c.Label))
		}
		sort.Strings(keys)
		for _, k := range keys {
			h.Write([]byte(k))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return float64(binary.BigEndian.Uint64(h.Sum(nil)[:8]) >> 16)
}

// frontEnd turns spec text into a fused loop program: tce.Parse →
// Spec.Lower (which operation-minimizes) → loops.FuseGreedy.
func frontEnd(tr *tracer, name, spec string) (*loops.Program, error) {
	id := tr.begin("tce.Parse")
	parsed, err := tce.Parse(spec)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("tce.Lower")
	prog, err := parsed.Lower(name)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("loops.FuseGreedy")
	prog = loops.FuseGreedy(prog)
	tr.end(id)
	return prog, nil
}

// synthesize runs one synthesis. Untraced (tr == nil) it is exactly one
// core.SynthesizeOpts call; traced, it calls the stages of that function
// one by one with the same options, a span around each, and reports the
// solver's record through stats.
func synthesize(tr *tracer, prog *loops.Program, sp synthSpec, stats *[]solveStats) (*synthOut, error) {
	if tr == nil {
		opts := []core.Option{
			core.WithMachine(sp.machine),
			core.WithStrategy(sp.strategy),
			core.WithSeed(sp.seed),
			core.WithPortfolio(sp.portfolio),
			core.WithPatience(sp.patience),
			core.WithMaxEvals(sp.maxEvals),
		}
		if sp.warm != nil {
			opts = append(opts, core.WithWarmStart(sp.warm.syn))
		}
		if sp.verify {
			opts = append(opts, core.WithVerify())
		}
		start := time.Now()
		syn, err := core.SynthesizeOpts(context.Background(), prog, opts...)
		wall := time.Since(start)
		if err != nil {
			return nil, err
		}
		return &synthOut{plan: syn.Plan, assign: syn.Assign, evals: syn.SolverEvals, wall: wall, syn: syn}, nil
	}
	start := time.Now()
	out, err := synthesizeStaged(tr, prog, sp, stats)
	if err != nil {
		return nil, err
	}
	out.wall = time.Since(start)
	return out, nil
}

// synthesizeStaged mirrors core.SynthesizeOpts stage by stage, including
// its warm-start remapping and incumbent-bound re-enumeration, so the
// traced pass produces the plan the untraced pass produces (the caller
// compares digests).
func synthesizeStaged(tr *tracer, prog *loops.Program, sp synthSpec, stats *[]solveStats) (*synthOut, error) {
	root := tr.begin("core.Synthesize")
	defer tr.end(root)
	solverStrategy, ok := sp.strategy.SolverStrategy()
	if !ok {
		return nil, fmt.Errorf("bench: strategy %v is not solver-based", sp.strategy)
	}

	id := tr.begin("tiling.Tile")
	tree, err := tiling.Tile(prog)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	enumerate := func(opt placement.Options) (*placement.Model, error) {
		id := tr.begin("placement.Enumerate")
		defer tr.end(id)
		return placement.Enumerate(tree, sp.machine, opt)
	}
	build := func(m *placement.Model) *nlp.Problem {
		id := tr.begin("nlp.Build")
		defer tr.end(id)
		return nlp.Build(m)
	}
	model, err := enumerate(placement.Options{})
	if err != nil {
		return nil, err
	}
	prob := build(model)

	var solveStart []int64
	if sp.warm != nil {
		if x0, matched := prob.EncodeAssignment(sp.warm.assign); matched > 0 {
			solveStart = x0
			if prob.Feasible(x0) {
				m2, err2 := enumerate(placement.Options{BoundIncumbent: prob.Objective(x0)})
				if err2 == nil && m2.BoundPruned > 0 {
					p2 := build(m2)
					if x2, matched2 := p2.EncodeAssignment(sp.warm.assign); matched2 == matched && p2.Feasible(x2) {
						model, prob, solveStart = m2, p2, x2
					}
				}
			}
		}
	}

	// The observer keeps the improvement curve of single-lane solves, from
	// which evals-to-within-1 % is read off afterwards.
	type point struct {
		evals int
		best  float64
	}
	var curve []point
	observer := func(e dcs.Event) {
		if e.Kind == "improvement" && e.Feasible {
			curve = append(curve, point{e.Evals, e.Best})
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id = tr.begin("dcs.Run")
	res, err := dcs.Run(context.Background(), prob,
		dcs.WithStrategy(solverStrategy),
		dcs.WithSeed(sp.seed),
		dcs.WithBudget(sp.maxEvals),
		dcs.WithStart(solveStart),
		dcs.WithPatience(sp.patience),
		dcs.WithPortfolio(sp.portfolio),
		dcs.WithObserver(observer),
	)
	wall := tr.end(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	if !res.Feasible {
		return nil, fmt.Errorf("bench: %v found no feasible configuration", sp.strategy)
	}
	st := solveStats{
		kind: sp.kind, wall: wall, evals: res.Evals, evalsTo1: res.Evals,
		allocs: after.Mallocs - before.Mallocs, allocByte: after.TotalAlloc - before.TotalAlloc,
		dim: prob.Dim(), pruned: model.BoundPruned,
	}
	for _, ch := range model.Choices {
		st.cands += len(ch.Candidates)
	}
	if sp.portfolio <= 1 {
		for _, p := range curve {
			if p.best <= res.Objective*1.01 {
				st.evalsTo1 = p.evals
				break
			}
		}
	}
	*stats = append(*stats, st)

	id = tr.begin("codegen.Generate")
	plan, err := codegen.Generate(prob, res.X)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if sp.verify {
		id = tr.begin("verify.Check")
		rep := verify.Check(plan)
		tr.end(id)
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("bench: synthesized plan failed verification: %w", err)
		}
	}
	return &synthOut{plan: plan, assign: prob.Decode(res.X), evals: int64(res.Evals)}, nil
}

// pin names the plan a pinned workload executes: the benchmark fixes the
// tile sizes and the candidate label of every array itself, so exec and
// disk numbers on that workload cannot move when the solver changes.
type pin struct {
	tiles  map[string]int64
	labels map[string]string // choice name → candidate label
}

// pinnedPlan builds a plan without the solver: tiling.Tile →
// placement.Enumerate → nlp.Build → EncodeAssignment → codegen.Generate
// (→ verify.Check when check is set). Every choice must match its pinned
// label and the plan must be feasible on the machine. The returned wall
// time is the construction's.
func pinnedPlan(tr *tracer, prog *loops.Program, cfg machine.Config, p pin, check bool) (*synthOut, error) {
	start := time.Now()
	root := tr.begin("core.Synthesize")
	defer tr.end(root)
	id := tr.begin("tiling.Tile")
	tree, err := tiling.Tile(prog)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("placement.Enumerate")
	model, err := placement.Enumerate(tree, cfg, placement.Options{})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("nlp.Build")
	prob := nlp.Build(model)
	tr.end(id)

	want := nlp.Assignment{Tiles: p.tiles, Selected: map[string]*placement.Candidate{}}
	for name, label := range p.labels {
		want.Selected[name] = &placement.Candidate{Label: label}
	}
	x, matched := prob.EncodeAssignment(want)
	if matched != len(model.Choices) || matched != len(p.labels) {
		return nil, fmt.Errorf("bench: pinned plan matched %d of %d choices (%d labels pinned)", matched, len(model.Choices), len(p.labels))
	}
	if !prob.Feasible(x) {
		return nil, fmt.Errorf("bench: pinned plan is infeasible on %s", cfg.Name)
	}
	id = tr.begin("codegen.Generate")
	plan, err := codegen.Generate(prob, x)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if check {
		id = tr.begin("verify.Check")
		rep := verify.Check(plan)
		tr.end(id)
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("bench: pinned plan failed verification: %w", err)
		}
	}
	return &synthOut{plan: plan, assign: prob.Decode(x), wall: time.Since(start)}, nil
}

// planShape reports the ledger's static plan figures.
func planShape(p *codegen.Plan) (nodes int, jsonBytes int, err error) {
	var walk func(ns []codegen.Node)
	walk = func(ns []codegen.Node) {
		for _, n := range ns {
			nodes++
			if l, ok := n.(*codegen.Loop); ok {
				walk(l.Body)
			}
		}
	}
	walk(p.Body)
	data, err := json.Marshal(p)
	return nodes, len(data), err
}
