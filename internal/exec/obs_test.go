package exec

import (
	"math"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// closeRel compares modelled seconds up to floating-point association
// (sums are accumulated in different orders by the spans and the Stats).
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}

// TestObsTelemetryMatchesStats is the observability acceptance test: for
// both the serial and the pipelined engine, the disk-track span total
// equals the backend's modelled disk.Stats.Time(), and the metrics
// registry's byte/op counters equal the backend's Stats. NoFetch keeps
// the output on disk so the counters cover exactly what Result.Stats
// covers (fetch reads happen after the Stats snapshot).
func TestObsTelemetryMatchesStats(t *testing.T) {
	nmn, nij := int64(6), int64(8)
	prog := loops.TwoIndexFused(nmn, nij)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(nmn, nij), 42)
	plan, err := codegen.Generate(p, p.Encode(map[string]int64{"i": 4, "j": 4, "m": 3, "n": 3}, nil))
	if err != nil {
		t.Fatal(err)
	}

	for _, pipelined := range []bool{false, true} {
		name := "serial"
		if pipelined {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			be := disk.NewSim(cfg.Disk, true)
			defer be.Close()
			reg := obs.NewRegistry()
			tr := obs.NewTracer()
			if !disk.AttachMetrics(be, reg) {
				t.Fatal("Sim backend must accept a metrics registry")
			}
			res, err := Run(plan, be, inputs, Options{
				Pipeline: pipelined, NoFetch: true, Metrics: reg, Tracer: tr,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Disk-track span total == modelled Stats time.
			if got, want := tr.TrackSeconds(obs.TrackDisk), res.Stats.Time(); !closeRel(got, want) {
				t.Fatalf("disk-track span seconds %.12g != Stats.Time() %.12g", got, want)
			}

			// Metrics counters == backend Stats (computation only; staging
			// precedes ResetStats, which also zeroes the backend's counters).
			snap := reg.Snapshot()
			wantCounters := map[string]int64{
				disk.MetricReadOps:    res.Stats.ReadOps,
				disk.MetricReadBytes:  res.Stats.BytesRead,
				disk.MetricWriteOps:   res.Stats.WriteOps,
				disk.MetricWriteBytes: res.Stats.BytesWritten,
			}
			for name, want := range wantCounters {
				if got := snap.Counters[name]; got != want {
					t.Errorf("counter %s = %d, want %d (stats %v)", name, got, want, res.Stats)
				}
			}

			// Buffer watermark gauge mirrors Result.PeakBufferBytes.
			if got := snap.Gauges["exec.buffer.peak_bytes"].Value; got != float64(res.PeakBufferBytes) {
				t.Errorf("exec.buffer.peak_bytes = %g, want %d", got, res.PeakBufferBytes)
			}
			if got := snap.Gauges["exec.buffer.bytes"].Max; got != float64(res.PeakBufferBytes) {
				t.Errorf("exec.buffer.bytes high-water %g, want %d", got, res.PeakBufferBytes)
			}

			if !pipelined {
				return
			}

			// Pipeline counters mirror PipelineStats.
			ps := res.Pipeline
			if ps == nil {
				t.Fatal("pipelined run must report PipelineStats")
			}
			if got := snap.Counters["exec.pipeline.prefetch.shadow"]; got != ps.PrefetchedReads {
				t.Errorf("prefetch.shadow counter %d != PrefetchedReads %d", got, ps.PrefetchedReads)
			}
			if got := snap.Counters["exec.pipeline.writebehind"]; got != ps.WriteBehindWrites {
				t.Errorf("writebehind counter %d != WriteBehindWrites %d", got, ps.WriteBehindWrites)
			}
			if got := snap.Counters["exec.pipeline.barriers"]; got != ps.Barriers {
				t.Errorf("barriers counter %d != Barriers %d", got, ps.Barriers)
			}
			if h := snap.Histograms["exec.pipeline.barrier.stall_seconds"]; h.Count != ps.Barriers {
				t.Errorf("barrier stall histogram count %d != Barriers %d", h.Count, ps.Barriers)
			}

			// Every barrier leaves an instant event on the disk track.
			barriers := int64(0)
			for _, in := range tr.Instants() {
				if in.Name == "barrier" {
					if in.Track != obs.TrackDisk {
						t.Errorf("barrier instant on track %q", in.Track)
					}
					barriers++
				}
			}
			if barriers != ps.Barriers {
				t.Errorf("%d barrier instants, want %d", barriers, ps.Barriers)
			}

			// The Chrome export is valid JSON with both tracks present.
			raw, err := tr.ChromeTrace()
			if err != nil {
				t.Fatalf("ChromeTrace: %v", err)
			}
			if len(raw) == 0 {
				t.Fatal("empty Chrome trace")
			}
		})
	}
}

// TestPipelineObservedAllPlacements extends the pipelined engine's central
// bit-identity property with the full observability stack attached: for
// every placement combination the pipelined engine runs against a
// trace.Recorder-wrapped backend with a shared metrics registry and an
// engine tracer, and must still be bit-identical to the bare serial run
// with the same disk traffic. Run under -race this also exercises the
// recorder's and registry's concurrency safety against the asynchronous
// prefetch and write-behind goroutines.
func TestPipelineObservedAllPlacements(t *testing.T) {
	nmn, nij := int64(6), int64(8)
	prog := loops.TwoIndexFused(nmn, nij)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(nmn, nij), 99)

	tileSets := []map[string]int64{
		{"i": 4, "j": 4, "m": 3, "n": 3},
		{"i": 3, "j": 5, "m": 4, "n": 5},
	}
	nCombos := 1
	for ci := 0; ci < p.NumChoices(); ci++ {
		nCombos *= p.Choices[ci].M
	}
	for _, tiles := range tileSets {
		for combo := 0; combo < nCombos; combo++ {
			sel := map[string]int{}
			rest := combo
			for ci := 0; ci < p.NumChoices(); ci++ {
				m := p.Choices[ci].M
				sel[p.Choices[ci].Name] = rest % m
				rest /= m
			}
			plan, err := codegen.Generate(p, p.Encode(tiles, sel))
			if err != nil {
				t.Fatal(err)
			}

			sbe := disk.NewSim(cfg.Disk, true)
			serial, err := Run(plan, sbe, inputs, Options{})
			if err != nil {
				t.Fatalf("tiles %v combo %d serial: %v", tiles, combo, err)
			}
			sbe.Close()

			rec := trace.NewWithDisk(disk.NewSim(cfg.Disk, true), cfg.Disk)
			reg := obs.NewRegistry()
			tr := obs.NewTracer()
			if !disk.AttachMetrics(rec, reg) {
				t.Fatal("recorder must forward metrics attachment to its inner backend")
			}
			piped, err := Run(plan, rec, inputs, Options{Pipeline: true, Metrics: reg, Tracer: tr})
			if err != nil {
				t.Fatalf("tiles %v combo %d pipelined: %v", tiles, combo, err)
			}

			bitIdentical(t, piped.Outputs["B"], serial.Outputs["B"], "observed pipelined output")
			sameIO(t, piped.Stats, serial.Stats, "observed all-placements")

			// Engine tracer covers exactly what Result.Stats covers.
			if got, want := tr.TrackSeconds(obs.TrackDisk), piped.Stats.Time(); !closeRel(got, want) {
				t.Fatalf("tiles %v combo %d: disk-track %.12g != Stats.Time() %.12g", tiles, combo, got, want)
			}

			// The registry counters track the inner backend's live totals
			// (both include the staging-excluded computation plus the fetch).
			final := rec.Stats()
			snap := reg.Snapshot()
			if got := snap.Counters[disk.MetricReadBytes]; got != final.BytesRead {
				t.Fatalf("tiles %v combo %d: read bytes counter %d != backend %d", tiles, combo, got, final.BytesRead)
			}
			if got := snap.Counters[disk.MetricWriteBytes]; got != final.BytesWritten {
				t.Fatalf("tiles %v combo %d: write bytes counter %d != backend %d", tiles, combo, got, final.BytesWritten)
			}
			rec.Close()
		}
	}
}
