// Package repro's benchmark harness: one benchmark per table and figure
// of the paper's evaluation, plus the design-choice ablations listed in
// DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks report the synthesized code's predicted disk I/O time as the
// custom metric "predicted-io-s" where applicable, so quality and speed
// can be read from one run. The uniform-sampling baseline uses a capped
// grid here to keep iterations bounded; cmd/oocbench runs the full grid
// (the hours-vs-minutes contrast of Table 2).
package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dcs"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/figures"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/ring"
	"repro/internal/sampling"
	"repro/internal/tables"
	"repro/internal/tce"
	"repro/internal/tensor"
	"repro/internal/tiling"
)

// fourIndexProblem builds the NLP for the paper's workload.
func fourIndexProblem(b *testing.B, n, v int64, cfg machine.Config, opt placement.Options) *nlp.Problem {
	b.Helper()
	tree, err := tiling.Tile(loops.FourIndexAbstract(n, v))
	if err != nil {
		b.Fatal(err)
	}
	m, err := placement.Enumerate(tree, cfg, opt)
	if err != nil {
		b.Fatal(err)
	}
	return nlp.Build(m)
}

func synthesize(b *testing.B, strat core.Strategy, n, v int64, mem int64, combos int64) *core.Synthesis {
	b.Helper()
	cfg := machine.OSCItanium2()
	if mem > 0 {
		cfg.MemoryLimit = mem
	}
	s, err := core.SynthesizeOpts(context.Background(), loops.FourIndexAbstract(n, v),
		core.WithMachine(cfg),
		core.WithStrategy(strat),
		core.WithSeed(1),
		core.WithSampling(sampling.Options{MaxCombos: combos}),
	)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// ---- Table 2: code generation time ----

func BenchmarkTable2_DCS_140x120(b *testing.B) {
	var pred float64
	for i := 0; i < b.N; i++ {
		s := synthesize(b, core.DCS, 140, 120, 0, 0)
		pred = s.Predicted()
	}
	b.ReportMetric(pred, "predicted-io-s")
}

func BenchmarkTable2_DCS_190x180(b *testing.B) {
	var pred float64
	for i := 0; i < b.N; i++ {
		s := synthesize(b, core.DCS, 190, 180, 0, 0)
		pred = s.Predicted()
	}
	b.ReportMetric(pred, "predicted-io-s")
}

func BenchmarkTable2_UniformSampling_140x120(b *testing.B) {
	var pred float64
	for i := 0; i < b.N; i++ {
		s := synthesize(b, core.UniformSampling, 140, 120, 0, 500000)
		pred = s.Predicted()
	}
	b.ReportMetric(pred, "predicted-io-s")
}

func BenchmarkTable2_UniformSampling_190x180(b *testing.B) {
	var pred float64
	for i := 0; i < b.N; i++ {
		s := synthesize(b, core.UniformSampling, 190, 180, 0, 500000)
		pred = s.Predicted()
	}
	b.ReportMetric(pred, "predicted-io-s")
}

// ---- Table 3: measured vs predicted sequential disk I/O time ----

func benchTable3(b *testing.B, strat core.Strategy, n, v int64) {
	s := synthesize(b, strat, n, v, 0, 300000)
	b.ResetTimer()
	var measured float64
	for i := 0; i < b.N; i++ {
		st, err := s.MeasureSim()
		if err != nil {
			b.Fatal(err)
		}
		measured = st.Time()
	}
	b.ReportMetric(measured, "measured-io-s")
	b.ReportMetric(s.Predicted(), "predicted-io-s")
}

func BenchmarkTable3_DCS_140x120(b *testing.B)     { benchTable3(b, core.DCS, 140, 120) }
func BenchmarkTable3_DCS_190x180(b *testing.B)     { benchTable3(b, core.DCS, 190, 180) }
func BenchmarkTable3_Uniform_140x120(b *testing.B) { benchTable3(b, core.UniformSampling, 140, 120) }
func BenchmarkTable3_Uniform_190x180(b *testing.B) { benchTable3(b, core.UniformSampling, 190, 180) }

// ---- Table 4: parallel disk I/O time on the GA/DRA block distribution ----

func benchTable4(b *testing.B, strat core.Strategy, procs int) {
	perNode := machine.OSCItanium2()
	s := synthesize(b, strat, 140, 120, perNode.MemoryLimit*int64(procs), 300000)
	b.ResetTimer()
	var wall float64
	for i := 0; i < b.N; i++ {
		st, err := ring.New(ring.Options{Shards: procs, Replicas: 1, Disk: perNode.Disk})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Run(s.Plan, st, nil, exec.Options{DryRun: true}); err != nil {
			b.Fatal(err)
		}
		wall = st.Time()
		st.Close()
	}
	b.ReportMetric(wall, "parallel-io-s")
}

func BenchmarkTable4_DCS_2procs(b *testing.B)     { benchTable4(b, core.DCS, 2) }
func BenchmarkTable4_DCS_4procs(b *testing.B)     { benchTable4(b, core.DCS, 4) }
func BenchmarkTable4_Uniform_2procs(b *testing.B) { benchTable4(b, core.UniformSampling, 2) }
func BenchmarkTable4_Uniform_4procs(b *testing.B) { benchTable4(b, core.UniformSampling, 4) }

// ---- Figures 1-5: regeneration ----

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figures.Figure1() == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figures.Figure2() == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Figure4(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figures.Figure5() == "" {
			b.Fatal("empty figure")
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----

// Solver ablation: DLM vs CSA vs random sampling at equal budgets.
func benchSolver(b *testing.B, strat dcs.Strategy) {
	p := fourIndexProblem(b, 140, 120, machine.OSCItanium2(), placement.Options{})
	b.ResetTimer()
	var obj float64
	for i := 0; i < b.N; i++ {
		res, err := dcs.Run(context.Background(), p, dcs.WithStrategy(strat), dcs.WithSeed(1), dcs.WithBudget(100000))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("infeasible")
		}
		obj = res.Objective
	}
	b.ReportMetric(obj, "predicted-io-s")
}

func BenchmarkSolverAblation_DLM(b *testing.B)    { benchSolver(b, dcs.DLM) }
func BenchmarkSolverAblation_CSA(b *testing.B)    { benchSolver(b, dcs.CSA) }
func BenchmarkSolverAblation_Random(b *testing.B) { benchSolver(b, dcs.RandomSearch) }

// Placement-dominance ablation: candidate count and solve cost with and
// without dominance pruning.
func benchDominance(b *testing.B, disable bool) {
	cfg := machine.OSCItanium2()
	b.ResetTimer()
	var obj float64
	for i := 0; i < b.N; i++ {
		p := fourIndexProblem(b, 140, 120, cfg, placement.Options{DisableDominancePruning: disable})
		res, err := dcs.Run(context.Background(), p, dcs.WithSeed(1), dcs.WithBudget(100000))
		if err != nil || !res.Feasible {
			b.Fatalf("solve failed: %v", err)
		}
		obj = res.Objective
	}
	b.ReportMetric(obj, "predicted-io-s")
}

func BenchmarkPlacementAblation_Pruned(b *testing.B)   { benchDominance(b, false) }
func BenchmarkPlacementAblation_Unpruned(b *testing.B) { benchDominance(b, true) }

// Sampling-density ablation: the baseline's grid factor trades search time
// against solution quality.
func benchSamplingDensity(b *testing.B, factor int64) {
	p := fourIndexProblem(b, 140, 120, machine.OSCItanium2(), placement.Options{})
	b.ResetTimer()
	var obj float64
	for i := 0; i < b.N; i++ {
		res, err := sampling.Search(context.Background(), p, sampling.Options{GridFactor: factor})
		if err != nil {
			b.Fatal(err)
		}
		obj = res.Objective
	}
	b.ReportMetric(obj, "predicted-io-s")
}

func BenchmarkSamplingDensity_x4(b *testing.B)  { benchSamplingDensity(b, 4) }
func BenchmarkSamplingDensity_x8(b *testing.B)  { benchSamplingDensity(b, 8) }
func BenchmarkSamplingDensity_x16(b *testing.B) { benchSamplingDensity(b, 16) }

// Block-size ablation: without the minimum-block constraint the solver may
// choose seek-dominated tilings; the metric shows the resulting I/O time
// under the same disk.
func benchBlockConstraint(b *testing.B, enforce bool) {
	cfg := machine.OSCItanium2()
	if !enforce {
		cfg.Disk.MinReadBlock = 0
		cfg.Disk.MinWriteBlock = 0
	}
	p := fourIndexProblem(b, 140, 120, cfg, placement.Options{})
	b.ResetTimer()
	var obj float64
	for i := 0; i < b.N; i++ {
		res, err := dcs.Run(context.Background(), p, dcs.WithSeed(1), dcs.WithBudget(100000))
		if err != nil || !res.Feasible {
			b.Fatalf("solve failed: %v", err)
		}
		obj = res.Objective
	}
	b.ReportMetric(obj, "predicted-io-s")
}

func BenchmarkBlockSizeAblation_Enforced(b *testing.B) { benchBlockConstraint(b, true) }
func BenchmarkBlockSizeAblation_Disabled(b *testing.B) { benchBlockConstraint(b, false) }

// ---- Extension benchmarks ----

// Higher-order coupled-cluster scaling: DCS codegen time for the
// 10-loop triples-like workload where the sampling grid is ~2 billion
// combinations (the paper's "impractical" regime).
func BenchmarkScalingCCTriples_DCS(b *testing.B) {
	parsed, err := tce.Parse(tce.CCTriplesSpec(140, 120))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := parsed.Lower("cc-triples")
	if err != nil {
		b.Fatal(err)
	}
	prog = loops.FuseGreedy(prog)
	b.ResetTimer()
	var pred float64
	for i := 0; i < b.N; i++ {
		s, err := core.SynthesizeOpts(context.Background(), prog.Clone(), core.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		pred = s.Predicted()
	}
	b.ReportMetric(pred, "predicted-io-s")
}

// Naive demand-paging strawman vs synthesized code.
func BenchmarkNaivePagingBaseline(b *testing.B) {
	var naive float64
	for i := 0; i < b.N; i++ {
		v, err := tables.NaivePagingCost(loops.FourIndexAbstract(140, 120), machine.OSCItanium2())
		if err != nil {
			b.Fatal(err)
		}
		naive = v
	}
	b.ReportMetric(naive, "naive-paging-io-s")
}

// ---- Kernel micro-benchmarks ----

// gemmOperands returns 256×256 factors without a single zero (the kernel
// has no zero-skip to flatter) and a zeroed product.
func gemmOperands() (c, x, y *tensor.Tensor) {
	x, y = tensor.New(256, 256), tensor.New(256, 256)
	for i := range x.Data() {
		x.Data()[i] = float64(1 + i%7)
		y.Data()[i] = float64(1 + i%5)
	}
	return tensor.New(256, 256), x, y
}

func BenchmarkGEMM256(b *testing.B) {
	c, x, y := gemmOperands()
	b.SetBytes(256 * 256 * 8 * 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulAcc(c, x, y)
	}
}

func BenchmarkObjectiveEvaluation(b *testing.B) {
	p := fourIndexProblem(b, 140, 120, machine.OSCItanium2(), placement.Options{})
	x := p.Encode(map[string]int64{"a": 30, "b": 30, "c": 30, "d": 30, "p": 35, "q": 35, "r": 35, "s": 35}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Objective(x)
		_ = p.Violations(x)
	}
}

func BenchmarkEnumeratePlacements(b *testing.B) {
	prog := loops.FourIndexAbstract(140, 120)
	tree, err := tiling.Tile(prog)
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.OSCItanium2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.Enumerate(tree, cfg, placement.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDryRunFourIndex(b *testing.B) {
	s := synthesize(b, core.DCS, 140, 120, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MeasureSim(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOperationMinimization(b *testing.B) {
	c := expr.FourIndexTransform(140, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Minimize(c, "T"); err != nil {
			b.Fatal(err)
		}
	}
}
