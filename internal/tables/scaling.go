package tables

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/tce"
)

// ScalingRow is one workload of the complexity-scaling study: how the
// uniform-sampling grid size explodes with the number of loop indices
// while DCS code generation time stays flat (the paper's higher-order
// coupled-cluster motivation).
type ScalingRow struct {
	Name      string
	TileVars  int
	Arrays    int
	GridSize  int64 // full log-2 grid combinations the baseline must visit
	DCSTime   time.Duration
	DCSEvals  int64
	Predicted float64
	Feasible  bool
}

// ScalingWorkload names a workload of the study.
type ScalingWorkload struct {
	Name string
	Prog *loops.Program
}

// ScalingWorkloads builds the study's default workload ladder.
func ScalingWorkloads() ([]ScalingWorkload, error) {
	specs := []struct {
		name string
		src  string
	}{
		{"four-index (8 loops)", tce.FourIndexSpec(140, 120)},
		{"cc-doubles (8 loops)", tce.CCDoublesSpec(60, 140)},
		{"cc-triples (10 loops)", tce.CCTriplesSpec(140, 120)},
	}
	var out []ScalingWorkload
	for _, s := range specs {
		parsed, err := tce.Parse(s.src)
		if err != nil {
			return nil, fmt.Errorf("tables: %s: %w", s.name, err)
		}
		prog, err := parsed.Lower(s.name)
		if err != nil {
			return nil, fmt.Errorf("tables: %s: %w", s.name, err)
		}
		out = append(out, ScalingWorkload{Name: s.name, Prog: loops.FuseGreedy(prog)})
	}
	return out, nil
}

// ScalingStudy runs DCS on each workload and computes (without running
// it) the full-grid size the uniform-sampling baseline would need.
func ScalingStudy(workloads []ScalingWorkload, opt Options) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, w := range workloads {
		row := ScalingRow{Name: w.Name, Arrays: len(w.Prog.Order)}
		vars := w.Prog.SortedIndices()
		row.TileVars = len(vars)
		row.GridSize = 1
		for _, x := range vars {
			n := w.Prog.Ranges[x]
			points := int64(1) // the value N itself
			for v := int64(1); v < n; v *= 2 {
				points++
			}
			row.GridSize *= points
		}
		s, err := core.SynthesizeOpts(context.Background(), w.Prog,
			append(opt.coreOptions(), core.WithMachine(machine.OSCItanium2()))...)
		if err != nil {
			// Record the failure rather than aborting the study.
			rows = append(rows, row)
			continue
		}
		row.DCSTime = s.GenTime
		row.DCSEvals = s.SolverEvals
		row.Predicted = s.Predicted()
		row.Feasible = true
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatScaling renders the study.
func FormatScaling(rows []ScalingRow) string {
	var b strings.Builder
	b.WriteString("Complexity scaling: uniform-sampling grid size vs DCS code generation time\n")
	b.WriteString("workload                 loops  full grid combos     DCS time  DCS predicted I/O\n")
	for _, r := range rows {
		if !r.Feasible {
			fmt.Fprintf(&b, "%-24s %5d  %16d  %11s  %s\n", r.Name, r.TileVars, r.GridSize, "-", "infeasible")
			continue
		}
		fmt.Fprintf(&b, "%-24s %5d  %16d  %10.2fs  %14.0fs\n",
			r.Name, r.TileVars, r.GridSize, r.DCSTime.Seconds(), r.Predicted)
	}
	b.WriteString("\n(the baseline must evaluate every grid combination; at ~1 µs per\ncombination the 10-loop grid alone takes hours, matching the paper's\n\"impractical for higher-order coupled cluster methods\")\n")
	return b.String()
}
