package exec

import (
	"hash/fnv"
	"testing"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/trace"
)

// telemetryExport is TestTracedDryRunExportIdentity's record of the
// paper-scale dry run's telemetry, per schedule: the FNV-64a digest of the
// engine tracer's Chrome export. Recorded before the telemetry log moved
// to the chunked store; the export must not move by a byte.
var telemetryExport = map[bool]uint64{false: 0x6d9840233e971c8e, true: 0x90b9f5506681dae7}

func fnvBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestTracedDryRunExportIdentity pins what a paper-scale dry run through
// a trace.Recorder exports under both schedules: the engine tracer's
// Chrome trace, to the byte.
func TestTracedDryRunExportIdentity(t *testing.T) {
	plan, cfg := paperDryRunPlan(t)
	for _, pipelined := range []bool{false, true} {
		rec := trace.NewWithDisk(disk.NewSim(cfg.Disk, false), cfg.Disk)
		tr := obs.NewTracer()
		if _, err := Run(plan, rec, nil, Options{DryRun: true, Pipeline: pipelined, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		raw, err := tr.ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		if got := fnvBytes(raw); got != telemetryExport[pipelined] {
			t.Errorf("pipeline=%v: export digest %#x, recorded %#x", pipelined, got, telemetryExport[pipelined])
		}
	}
}

// TestRecorderSummaryMatchesLedger checks the recorder's per-array account
// against the backend's own accounting, on the paper-scale dry run and a
// generated data run under both schedules: each array's Summary row
// equals the per-array counters the backend mirrors into an attached
// registry, and the rows add up to the backend's final Stats.
func TestRecorderSummaryMatchesLedger(t *testing.T) {
	plan, cfg := paperDryRunPlan(t)
	gen := progenCases(t)[1]
	for _, tc := range []schedCase{{name: "paper dry run", plan: plan, cfg: cfg}, gen} {
		for _, pipelined := range []bool{false, true} {
			rec := trace.NewWithDisk(disk.NewSim(tc.cfg.Disk, tc.inputs != nil), tc.cfg.Disk)
			reg := obs.NewRegistry()
			disk.AttachMetrics(rec, reg)
			if _, err := Run(tc.plan, rec, tc.inputs, Options{DryRun: tc.inputs == nil, Pipeline: pipelined}); err != nil {
				t.Fatal(err)
			}
			sums := rec.Summary()
			if len(sums) == 0 {
				t.Fatalf("%s, pipeline=%v: empty summary", tc.name, pipelined)
			}
			c := reg.Snapshot().Counters
			var tot disk.Stats
			for _, s := range sums {
				ledger := trace.ArraySummary{Array: s.Array, Seconds: s.Seconds,
					ReadOps: c[disk.MetricReadOps+"/"+s.Array], BytesRead: c[disk.MetricReadBytes+"/"+s.Array],
					WriteOps: c[disk.MetricWriteOps+"/"+s.Array], BytesWrite: c[disk.MetricWriteBytes+"/"+s.Array]}
				if s != ledger {
					t.Errorf("%s, pipeline=%v: summary row %+v, ledger counters %+v", tc.name, pipelined, s, ledger)
				}
				tot.ReadOps += s.ReadOps
				tot.WriteOps += s.WriteOps
				tot.BytesRead += s.BytesRead
				tot.BytesWritten += s.BytesWrite
			}
			final := rec.Stats()
			final.ReadTime, final.WriteTime = 0, 0
			if tot != final {
				t.Errorf("%s, pipeline=%v: summary totals %+v, backend Stats %+v", tc.name, pipelined, tot, final)
			}
			rec.Close()
		}
	}
}

// TestTracedDryRunAllocsPerOp pins what telemetry costs when switched on:
// a paper-scale dry run through a trace.Recorder with an engine tracer
// attached allocates at most 0.05 objects per section operation more than
// the same run on a bare Sim, under both schedules.
func TestTracedDryRunAllocsPerOp(t *testing.T) {
	plan, cfg := paperDryRunPlan(t)
	var ops float64
	run := func(pipelined, traced bool) {
		var be disk.Backend = disk.NewSim(cfg.Disk, false)
		opt := Options{DryRun: true, Pipeline: pipelined}
		if traced {
			be = trace.NewWithDisk(be, cfg.Disk)
			opt.Tracer = obs.NewTracer()
		}
		res, err := Run(plan, be, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		ops = float64(res.Stats.ReadOps + res.Stats.WriteOps)
	}
	for _, pipelined := range []bool{false, true} {
		perOp := func(traced bool) float64 {
			return testing.AllocsPerRun(3, func() { run(pipelined, traced) }) / ops
		}
		bare, traced := perOp(false), perOp(true)
		t.Logf("pipeline=%v: allocations per section op: bare %.3f, traced %.3f", pipelined, bare, traced)
		if traced-bare > 0.05 {
			t.Errorf("pipeline=%v: telemetry allocates %.3f objects per section op (bare %.3f, traced %.3f): more than 0.05",
				pipelined, traced-bare, bare, traced)
		}
	}
}
