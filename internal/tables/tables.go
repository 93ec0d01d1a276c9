// Package tables regenerates the paper's evaluation tables: code
// generation times for the two synthesis approaches (Table 2), measured
// vs. predicted sequential disk I/O times (Table 3), and parallel disk I/O
// times on the simulated GA/DRA block distribution (Table 4, an R=1
// ring). The same entry points back cmd/oocbench and the repository's
// benchmark suite.
package tables

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/ring"
	"repro/internal/sampling"
	"repro/internal/tiling"
)

// Size is one problem size of the four-index transform experiments:
// p,q,r,s range over N and a,b,c,d over V.
type Size struct {
	N, V int64
}

// PaperSizes are the two configurations of Tables 2 and 3.
var PaperSizes = []Size{{140, 120}, {190, 180}}

// Options control the experiment runs. Every run models the paper's node,
// machine.OSCItanium2 (per processor where a table scales processors).
type Options struct {
	// Seed for the DCS solver.
	Seed int64
	// DCSEvals bounds the DCS budget (0: solver default).
	DCSEvals int
	// SamplingCombos caps the uniform-sampling grid (0: full grid, as in
	// the paper; the full grid over 8 loops is what makes the baseline
	// take hours there and minutes here).
	SamplingCombos int64
	// Metrics, if non-nil, receives the solver and disk counters of every
	// synthesis and measurement run of the experiment.
	Metrics *obs.Registry
	// Tracer, if non-nil, records the measurement runs' modelled
	// timelines as obs spans (successive runs append to one timeline).
	Tracer *obs.Tracer
	// Log, if non-nil, receives every synthesis's and measurement's
	// structured events (solver progress, retries, recovery).
	Log *obs.Log
}

// synthesize runs one approach on one size.
func synthesize(strategy core.Strategy, size Size, opt Options, memLimit int64) (*core.Synthesis, error) {
	cfg := machine.OSCItanium2()
	if memLimit > 0 {
		cfg.MemoryLimit = memLimit
	}
	return core.SynthesizeOpts(context.Background(), loops.FourIndexAbstract(size.N, size.V),
		append(opt.coreOptions(),
			core.WithMachine(cfg),
			core.WithStrategy(strategy),
			core.WithSampling(sampling.Options{MaxCombos: opt.SamplingCombos}))...)
}

// coreOptions maps the experiment options onto the synthesis options
// every run shares (machine and strategy are per-call).
func (o Options) coreOptions() []core.Option {
	return []core.Option{core.WithSeed(o.Seed), core.WithMaxEvals(o.DCSEvals),
		core.WithMetrics(o.Metrics), core.WithTracer(o.Tracer), core.WithLog(o.Log)}
}

// Table2Row is one row of Table 2: code generation time per approach.
type Table2Row struct {
	Size           Size
	UniformGenTime time.Duration
	DCSGenTime     time.Duration
	UniformCombos  int64
	DCSEvals       int64
}

// Table2 measures code generation time for both approaches.
func Table2(sizes []Size, opt Options) ([]Table2Row, error) {
	var rows []Table2Row
	for _, sz := range sizes {
		us, err := synthesize(core.UniformSampling, sz, opt, 0)
		if err != nil {
			return nil, fmt.Errorf("tables: uniform sampling at %v: %w", sz, err)
		}
		ds, err := synthesize(core.DCS, sz, opt, 0)
		if err != nil {
			return nil, fmt.Errorf("tables: DCS at %v: %w", sz, err)
		}
		rows = append(rows, Table2Row{
			Size:           sz,
			UniformGenTime: us.GenTime,
			DCSGenTime:     ds.GenTime,
			UniformCombos:  us.SolverEvals,
			DCSEvals:       ds.SolverEvals,
		})
	}
	return rows, nil
}

// FormatTable2 renders rows in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: code generation times for the two approaches\n")
	b.WriteString("Ranges(p,q,r,s)  Ranges(a,b,c,d)  Uniform Sampling (s)  DCS (s)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%15d  %15d  %20.2f  %7.2f\n",
			r.Size.N, r.Size.V, r.UniformGenTime.Seconds(), r.DCSGenTime.Seconds())
	}
	return b.String()
}

// Table3Row is one row of Table 3: measured and predicted sequential disk
// I/O times for both approaches.
type Table3Row struct {
	Size             Size
	UniformMeasured  float64
	UniformPredicted float64
	DCSMeasured      float64
	DCSPredicted     float64
}

// Table3 synthesizes with both approaches and measures the generated code
// on the simulated disk at full array scale.
func Table3(sizes []Size, opt Options) ([]Table3Row, error) {
	var rows []Table3Row
	for _, sz := range sizes {
		row := Table3Row{Size: sz}
		us, err := synthesize(core.UniformSampling, sz, opt, 0)
		if err != nil {
			return nil, err
		}
		row.UniformPredicted = us.Predicted()
		st, err := us.MeasureSim()
		if err != nil {
			return nil, err
		}
		row.UniformMeasured = st.Time()

		ds, err := synthesize(core.DCS, sz, opt, 0)
		if err != nil {
			return nil, err
		}
		row.DCSPredicted = ds.Predicted()
		st, err = ds.MeasureSim()
		if err != nil {
			return nil, err
		}
		row.DCSMeasured = st.Time()
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable3 renders rows in the paper's layout.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: measured and predicted sequential disk I/O times (s)\n")
	b.WriteString("Ranges(p..s)  Ranges(a..d)  US measured  US predicted  DCS measured  DCS predicted\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d  %12d  %11.0f  %12.0f  %12.0f  %13.0f\n",
			r.Size.N, r.Size.V, r.UniformMeasured, r.UniformPredicted, r.DCSMeasured, r.DCSPredicted)
	}
	return b.String()
}

// TablePipelineRow is one row of the pipelined-execution study: the
// modelled I/O-critical-path time of the DCS-synthesized code executed
// serially vs. under the modelled double-buffered schedule (prefetch +
// write-behind overlapping compute).
type TablePipelineRow struct {
	Size Size
	// SerialSeconds is the modelled time with every operation on the
	// critical path (the Table 3 execution discipline).
	SerialSeconds float64
	// OverlappedSeconds is the modelled critical path of the pipelined
	// engine over the same plan — identical bytes and operations.
	OverlappedSeconds float64
	// IOSeconds/ComputeSeconds split the serial time by engine; their max
	// lower-bounds OverlappedSeconds.
	IOSeconds      float64
	ComputeSeconds float64
	// PrefetchedReads and WriteBehindWrites count the operations the
	// pipeline moved off the critical path.
	PrefetchedReads   int64
	WriteBehindWrites int64
}

// Speedup returns the serial/overlapped ratio.
func (r TablePipelineRow) Speedup() float64 {
	if r.OverlappedSeconds <= 0 {
		return 1
	}
	return r.SerialSeconds / r.OverlappedSeconds
}

// TablePipeline synthesizes each size with DCS and measures the generated
// code on the simulated disk both serially and pipelined. The pipelined
// run moves exactly the same bytes in the same operations; only the
// modelled critical path changes.
func TablePipeline(sizes []Size, opt Options) ([]TablePipelineRow, error) {
	var rows []TablePipelineRow
	for _, sz := range sizes {
		ds, err := synthesize(core.DCS, sz, opt, 0)
		if err != nil {
			return nil, fmt.Errorf("tables: DCS at %v: %w", sz, err)
		}
		ds.Pipeline = true
		res, err := ds.MeasureSimFull()
		if err != nil {
			return nil, fmt.Errorf("tables: pipelined measurement at %v: %w", sz, err)
		}
		ps := res.Pipeline
		if ps == nil {
			return nil, fmt.Errorf("tables: pipelined measurement at %v reported no pipeline stats", sz)
		}
		rows = append(rows, TablePipelineRow{
			Size:              sz,
			SerialSeconds:     ps.SerialSeconds,
			OverlappedSeconds: ps.OverlappedSeconds,
			IOSeconds:         ps.IOSeconds,
			ComputeSeconds:    ps.ComputeSeconds,
			PrefetchedReads:   ps.PrefetchedReads,
			WriteBehindWrites: ps.WriteBehindWrites,
		})
	}
	return rows, nil
}

// FormatTablePipeline renders rows in the Table 3 layout, extended with
// the overlapped column.
func FormatTablePipeline(rows []TablePipelineRow) string {
	var b strings.Builder
	b.WriteString("Pipelined execution: modelled serial vs overlapped disk I/O critical path (s)\n")
	b.WriteString("Ranges(p..s)  Ranges(a..d)       serial     io  compute  overlapped  speedup\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d  %12d  %11.0f  %5.0f  %7.0f  %10.0f  %6.2fx\n",
			r.Size.N, r.Size.V, r.SerialSeconds, r.IOSeconds, r.ComputeSeconds,
			r.OverlappedSeconds, r.Speedup())
	}
	return b.String()
}

// NaivePagingCost estimates the disk time of running the abstract code
// untiled under OS demand paging (the ViC*-style strawman the
// out-of-core synthesis replaces): every array is accessed at its
// innermost position with unit tiles, so arrays larger than memory are
// re-fetched across every redundant outer loop. Computed as the model
// objective at tile size 1 with leaf placements.
func NaivePagingCost(prog *loops.Program, cfg machine.Config) (float64, error) {
	cfg.Disk.MinReadBlock = 0 // paging has no block discipline
	cfg.Disk.MinWriteBlock = 0
	cfg.Disk.SeekTime = 0 // charge pure transfer volume: a lower bound on paging
	tree, err := tiling.Tile(prog)
	if err != nil {
		return 0, err
	}
	model, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		return 0, err
	}
	p := nlp.Build(model)
	tiles := map[string]int64{}
	for _, v := range p.TileVars {
		tiles[v] = 1
	}
	return p.Objective(p.Encode(tiles, nil)), nil
}

// Table4Row is one row of Table 4: parallel disk I/O time for both
// approaches on P processors with aggregate memory P × per-node limit.
type Table4Row struct {
	Procs           int
	TotalMemory     int64
	UniformMeasured float64
	DCSMeasured     float64
}

// Table4 synthesizes for the aggregate memory of each processor count and
// executes the generated code on an R=1 ring, the GA/DRA block
// distribution over one local disk per processor.
func Table4(size Size, procCounts []int, opt Options) ([]Table4Row, error) {
	var rows []Table4Row
	for _, p := range procCounts {
		total := machine.OSCItanium2().MemoryLimit * int64(p)
		row := Table4Row{Procs: p, TotalMemory: total}
		for _, strat := range []core.Strategy{core.UniformSampling, core.DCS} {
			s, err := synthesize(strat, size, opt, total)
			if err != nil {
				return nil, err
			}
			st, err := ring.New(ring.Options{Shards: p, Replicas: 1, Disk: machine.OSCItanium2().Disk})
			if err != nil {
				return nil, err
			}
			if _, err := exec.Run(s.Plan, st, nil, exec.Options{DryRun: true}); err != nil {
				st.Close()
				return nil, err
			}
			if strat == core.UniformSampling {
				row.UniformMeasured = st.Time()
			} else {
				row.DCSMeasured = st.Time()
			}
			st.Close()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable4 renders rows in the paper's layout.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: measured parallel disk I/O times (s)\n")
	b.WriteString("Processors  Total memory (GB)  Uniform Sampling  DCS\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d  %17.0f  %16.1f  %4.1f\n",
			r.Procs, float64(r.TotalMemory)/float64(machine.GB), r.UniformMeasured, r.DCSMeasured)
	}
	return b.String()
}
