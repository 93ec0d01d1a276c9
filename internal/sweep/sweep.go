// Package sweep produces parameter-sweep series over the synthesis
// system — disk I/O time vs. memory limit, problem size, or processor
// count — as CSV-exportable series. These are the repo's "figure"
// generators beyond the paper's tables: the qualitative curves (memory
// starvation blow-up, superlinear parallel scaling, size scaling) that
// characterize out-of-core behaviour.
package sweep

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/ring"
)

// Point is one sweep sample: an x value and named y values.
type Point struct {
	X      float64
	Values map[string]float64
}

// Series is a named sweep with fixed columns.
type Series struct {
	Name    string
	XLabel  string
	Columns []string
	Points  []Point
}

// WriteCSV emits the series with a header row.
func (s Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{s.XLabel}, s.Columns...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range s.Points {
		row := []string{strconv.FormatFloat(p.X, 'g', -1, 64)}
		for _, c := range s.Columns {
			row = append(row, strconv.FormatFloat(p.Values[c], 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Options configure the sweeps. Every point models machine.OSCItanium2
// per node, with the swept quantity overridden.
type Options struct {
	Seed  int64
	Evals int
	// Metrics, if non-nil, accumulates the solver and disk counters of
	// every synthesis and measurement in the sweep.
	Metrics *obs.Registry
	// Tracer, if non-nil, records the measurement runs' modelled
	// timelines (successive sweep points append to one timeline).
	Tracer *obs.Tracer
	// Log, if non-nil, receives every synthesis's and measurement's
	// structured events (solver progress, retries, recovery).
	Log *obs.Log
	// Warm re-solves each sweep point from the previous point's solution:
	// the prior plan is remapped into the new problem as a starting point
	// and, when still feasible, its objective prunes the candidate
	// enumeration (see core.WithWarmStart). Only MemoryLimit exploits
	// this today.
	Warm bool
	// Patience stops each warm re-solve once a feasible point has gone
	// that many evaluations without improvement (0: run the full budget).
	// It is what converts a good starting point into fewer evaluations;
	// cold solves (the first point, or Warm unset) ignore it so their
	// quality is unaffected.
	Patience int
	// Portfolio races that many solver lanes per synthesis (≤ 1: single
	// lane).
	Portfolio int
}

// synthesize runs one DCS synthesis with the sweep's observability sinks
// attached; prev, when non-nil, warm-starts the solve.
func (o Options) synthesize(prog *loops.Program, cfg machine.Config, prev *core.Synthesis) (*core.Synthesis, error) {
	opts := []core.Option{
		core.WithMachine(cfg),
		core.WithStrategy(core.DCS),
		core.WithSeed(o.Seed),
		core.WithMaxEvals(o.Evals),
		core.WithMetrics(o.Metrics),
		core.WithTracer(o.Tracer),
		core.WithLog(o.Log),
		core.WithPortfolio(o.Portfolio),
	}
	if prev != nil {
		opts = append(opts, core.WithWarmStart(prev))
		// Patience only applies to warm re-solves: on a cold solve it
		// would just truncate the search and degrade the first point.
		if o.Patience > 0 {
			opts = append(opts, core.WithPatience(o.Patience))
		}
	}
	return core.SynthesizeOpts(context.Background(), prog, opts...)
}

// MemoryLimit sweeps the memory limit for a fixed program, reporting the
// DCS-synthesized code's predicted and measured I/O time per limit. The
// curve shows the memory-starvation blow-up: as memory shrinks, redundant
// passes multiply.
// When opt.Warm is set, each point after the first re-solves from the
// previous point's plan instead of cold (warm start plus incumbent
// pruning); the solver_evals column makes the saving visible.
func MemoryLimit(build func() *loops.Program, limits []int64, opt Options) (Series, error) {
	s := Series{Name: "io-time-vs-memory", XLabel: "memory_bytes", Columns: []string{"predicted_s", "measured_s", "solver_evals"}}
	var prev *core.Synthesis
	for _, limit := range limits {
		cfg := machine.OSCItanium2()
		cfg.MemoryLimit = limit
		var warm *core.Synthesis
		if opt.Warm {
			warm = prev
		}
		syn, err := opt.synthesize(build(), cfg, warm)
		if err != nil {
			return s, fmt.Errorf("sweep: limit %d: %w", limit, err)
		}
		prev = syn
		st, err := syn.MeasureSim()
		if err != nil {
			return s, err
		}
		s.Points = append(s.Points, Point{
			X: float64(limit),
			Values: map[string]float64{
				"predicted_s":  syn.Predicted(),
				"measured_s":   st.Time(),
				"solver_evals": float64(syn.SolverEvals),
			},
		})
	}
	return s, nil
}

// Processors sweeps the shard count of an R=1 ring (the GA/DRA block
// distribution, one local disk per processor) for the four-index transform,
// synthesizing for the aggregate memory of each processor count (the
// Table 4 mechanism as a curve).
func Processors(n, v int64, procCounts []int, opt Options) (Series, error) {
	s := Series{Name: "io-time-vs-procs", XLabel: "processors", Columns: []string{"wallclock_s", "volume_gb"}}
	perNode := machine.OSCItanium2()
	for _, p := range procCounts {
		cfg := perNode
		cfg.MemoryLimit = perNode.MemoryLimit * int64(p)
		syn, err := opt.synthesize(loops.FourIndexAbstract(n, v), cfg, nil)
		if err != nil {
			return s, err
		}
		st, err := ring.New(ring.Options{Shards: p, Replicas: 1, Disk: perNode.Disk})
		if err != nil {
			return s, err
		}
		if _, err := exec.Run(syn.Plan, st, nil, exec.Options{DryRun: true}); err != nil {
			st.Close()
			return s, err
		}
		agg := st.AggregateStats()
		s.Points = append(s.Points, Point{
			X: float64(p),
			Values: map[string]float64{
				"wallclock_s": st.Time(),
				"volume_gb":   float64(agg.BytesRead+agg.BytesWritten) / float64(machine.GB),
			},
		})
		st.Close()
	}
	return s, nil
}

// ProblemSize sweeps N (with V = scale·N) for the four-index transform,
// reporting synthesis time and predicted I/O time — how both grow with
// the problem.
func ProblemSize(ns []int64, vScale float64, opt Options) (Series, error) {
	s := Series{Name: "io-time-vs-size", XLabel: "N", Columns: []string{"predicted_s", "codegen_s"}}
	for _, n := range ns {
		v := int64(float64(n) * vScale)
		if v < 2 {
			v = 2
		}
		syn, err := opt.synthesize(loops.FourIndexAbstract(n, v), machine.OSCItanium2(), nil)
		if err != nil {
			return s, err
		}
		s.Points = append(s.Points, Point{
			X: float64(n),
			Values: map[string]float64{
				"predicted_s": syn.Predicted(),
				"codegen_s":   syn.GenTime.Seconds(),
			},
		})
	}
	return s, nil
}
