package tables

import (
	"strings"
	"testing"

	"repro/internal/loops"
	"repro/internal/obs"
)

func TestScalingStudy(t *testing.T) {
	workloads, err := ScalingWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(workloads) != 3 {
		t.Fatalf("workloads = %d", len(workloads))
	}
	rows, err := ScalingStudy(workloads, Options{Seed: 1, DCSEvals: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Grid size must grow explosively with loop count while DCS stays
	// bounded by its evaluation budget.
	if rows[2].TileVars <= rows[0].TileVars {
		t.Fatalf("triples should have more loops: %+v", rows)
	}
	if rows[2].GridSize <= rows[0].GridSize {
		t.Fatalf("grid must explode with loops: %+v", rows)
	}
	if rows[2].GridSize < 50*rows[0].GridSize {
		t.Fatalf("expected ≥50× grid blowup, got %d vs %d", rows[2].GridSize, rows[0].GridSize)
	}
	for _, r := range rows {
		if !r.Feasible {
			t.Fatalf("workload %s infeasible", r.Name)
		}
		if r.DCSTime.Seconds() > 30 {
			t.Fatalf("DCS took %.1fs on %s; should stay flat", r.DCSTime.Seconds(), r.Name)
		}
	}
	out := FormatScaling(rows)
	for _, want := range []string{"cc-triples", "full grid combos", "DCS time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

// TestScalingStudyRecordsMetrics: the scaling study's syntheses publish
// into Options.Metrics like every other table's, so oocbench -scaling
// with -metrics-out records its solver work.
func TestScalingStudyRecordsMetrics(t *testing.T) {
	opt := capped()
	opt.Metrics = obs.NewRegistry()
	rows, err := ScalingStudy([]ScalingWorkload{{Name: "four-index", Prog: loops.FourIndexAbstract(24, 24)}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].Feasible {
		t.Fatalf("rows = %+v", rows)
	}
	if got := opt.Metrics.Counter("dcs.evals").Value(); got <= 0 || got != rows[0].DCSEvals {
		t.Fatalf("dcs.evals = %d, want the study's %d evals", got, rows[0].DCSEvals)
	}
}
