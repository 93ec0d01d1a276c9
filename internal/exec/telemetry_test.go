package exec

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/trace"
)

// telemetryExport is TestTracedDryRunExportIdentity's record of the
// paper-scale dry run's telemetry, per schedule: FNV-64a digests of the
// engine tracer's Chrome export, of the recorder's Chrome export without
// its wall-clock lines, and of every recorded op but its wall clocks.
// Recorded before the telemetry logs moved to the chunked store; the
// export must not move by a byte.
var telemetryExport = map[bool]struct{ engine, recorder, ops uint64 }{
	false: {engine: 0x6d9840233e971c8e, recorder: 0xeb734a1101952eeb, ops: 0xe3df2e8f682b636a},
	true:  {engine: 0x90b9f5506681dae7, recorder: 0xeb734a1101952eeb, ops: 0xe3df2e8f682b636a},
}

// withoutWallClock drops the "Issued" and "Completed" lines of an indented
// JSON export: the recorder's ops carry wall-clock seconds that no two
// runs share.
func withoutWallClock(raw []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		field := bytes.TrimLeft(line, " ")
		if bytes.HasPrefix(field, []byte(`"Issued":`)) || bytes.HasPrefix(field, []byte(`"Completed":`)) {
			continue
		}
		out = append(out, line...)
	}
	return out
}

func fnvBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestTracedDryRunExportIdentity pins what a fully traced paper-scale dry
// run exports under both schedules: the engine tracer's Chrome trace, the
// recorder's Chrome trace and the recorder's op log, each to the byte
// (wall clocks aside).
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
		recRaw, err := rec.Tracer().ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		for _, op := range rec.Ops() {
			d.str(fmt.Sprint(op.Seq, op.Array, op.Read, op.Lo, op.Shape, op.Bytes))
			d.float(op.Start)
			d.float(op.Duration)
		}
		got := telemetryExport[pipelined]
		got.engine, got.recorder, got.ops = fnvBytes(raw), fnvBytes(withoutWallClock(recRaw)), d.h.Sum64()
		if got != telemetryExport[pipelined] {
			t.Errorf("pipeline=%v: export digests %#x, recorded %#x", pipelined, got, telemetryExport[pipelined])
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
