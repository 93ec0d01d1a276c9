package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/progen"
	"repro/internal/ring"
	"repro/internal/tensor"
)

// bitIdentical requires exact float64 equality element by element — the
// pipelined engine reorders disk traffic, never arithmetic.
func bitIdentical(t *testing.T, got, want *tensor.Tensor, ctx string) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing output tensor", ctx)
	}
	g, w := got.Data(), want.Data()
	if len(g) != len(w) {
		t.Fatalf("%s: size %d vs %d", ctx, len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: element %d: %v != %v (not bit-identical)", ctx, i, g[i], w[i])
		}
	}
}

// sameIO requires identical operation and byte counts; the modelled times
// are accumulated in completion order, so only their sums are compared
// (floating-point addition is not associative).
func sameIO(t *testing.T, got, want disk.Stats, ctx string) {
	t.Helper()
	if got.ReadOps != want.ReadOps || got.WriteOps != want.WriteOps ||
		got.BytesRead != want.BytesRead || got.BytesWritten != want.BytesWritten {
		t.Fatalf("%s: pipelined I/O counts %v != serial %v", ctx, got, want)
	}
	if math.Abs(got.ReadTime-want.ReadTime) > 1e-9*(1+math.Abs(want.ReadTime)) ||
		math.Abs(got.WriteTime-want.WriteTime) > 1e-9*(1+math.Abs(want.WriteTime)) {
		t.Fatalf("%s: pipelined modelled I/O time %v != serial %v", ctx, got, want)
	}
}

// schedCase is one plan of the differential schedule test.
type schedCase struct {
	name   string
	group  string // cases of one group share a recorded depth-0 watermark total
	resume bool   // also stop at every unit boundary and resume, at every depth
	plan   *codegen.Plan
	cfg    machine.Config
	inputs map[string]*tensor.Tensor
	out    string
}

// twoIndexCases enumerates EVERY placement combination of the fused
// two-index transform under several tile shapes.
func twoIndexCases(t *testing.T) []schedCase {
	nmn, nij := int64(6), int64(8)
	prog := loops.TwoIndexFused(nmn, nij)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(nmn, nij), 99)

	tileSets := []map[string]int64{
		{"i": 8, "j": 8, "m": 6, "n": 6},
		{"i": 4, "j": 4, "m": 3, "n": 3},
		{"i": 3, "j": 5, "m": 4, "n": 5},
		{"i": 1, "j": 1, "m": 1, "n": 1},
	}
	nCombos := 1
	for ci := 0; ci < p.NumChoices(); ci++ {
		nCombos *= p.NumCandidates(ci)
	}
	var cases []schedCase
	for ti, tiles := range tileSets {
		for combo := 0; combo < nCombos; combo++ {
			sel := map[string]int{}
			rest := combo
			for ci := 0; ci < p.NumChoices(); ci++ {
				m := p.NumCandidates(ci)
				sel[p.Choices[ci].Name] = rest % m
				rest /= m
			}
			plan, err := codegen.Generate(p, p.Encode(tiles, sel))
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, schedCase{
				name:  fmt.Sprintf("tiles %v combo %d", tiles, combo),
				group: fmt.Sprintf("two-index/tiles%d", ti),
				plan:  plan, cfg: cfg, inputs: inputs, out: "B",
				// One tile shape (the one with partial tiles in every
				// dimension) keeps the stop/resume sweep affordable.
				resume: ti == 2,
			})
		}
	}
	return cases
}

// progenCases builds plans for generated programs (random contraction
// chains, fused and unfused, single- and multi-term outputs): half-range
// tiles, so most dimensions end in a partial tile, under the default
// placement and a seed-derived one.
func progenCases(t *testing.T) []schedCase {
	cfg := machine.Small(1 << 20)
	var cases []schedCase
	for seed := int64(0); seed < 8; seed++ {
		prog := progen.Generate(rand.New(rand.NewSource(seed)), progen.Options{Fuse: seed%2 == 0, MultiTerm: seed%3 == 0})
		inputs := progen.InputTensors(prog, rand.New(rand.NewSource(seed+2000)))
		p := buildProblem(t, prog, cfg)
		tiles := map[string]int64{}
		for x, n := range prog.Ranges {
			tiles[x] = (n + 1) / 2
		}
		mixed := map[string]int{}
		for ci := 0; ci < p.NumChoices(); ci++ {
			mixed[p.Choices[ci].Name] = int(seed+int64(ci)) % p.NumCandidates(ci)
		}
		for si, sel := range []map[string]int{nil, mixed} {
			plan, err := codegen.Generate(p, p.Encode(tiles, sel))
			if err != nil {
				t.Fatalf("progen seed %d sel %d: %v", seed, si, err)
			}
			name := fmt.Sprintf("progen seed %d sel %d", seed, si)
			cases = append(cases, schedCase{name: name, group: name, resume: true, plan: plan, cfg: cfg, inputs: inputs, out: "Out"})
		}
	}
	return cases
}

// serialPeakBytes holds, per case group, the summed PeakBufferBytes of
// serial data-mode runs as the tree-walking serial interpreter reported
// them at commit 1ad8369, the last one that had it: the depth-0 schedule
// must bind buffers exactly as that engine instantiated them (no shadow
// slot, same re-allocation points).
var serialPeakBytes = map[string]int64{
	"progen seed 0 sel 0": 384,
	"progen seed 0 sel 1": 864,
	"progen seed 1 sel 0": 176,
	"progen seed 1 sel 1": 264,
	"progen seed 2 sel 0": 368,
	"progen seed 2 sel 1": 704,
	"progen seed 3 sel 0": 232,
	"progen seed 3 sel 1": 568,
	"progen seed 4 sel 0": 264,
	"progen seed 4 sel 1": 536,
	"progen seed 5 sel 0": 128,
	"progen seed 5 sel 1": 240,
	"progen seed 6 sel 0": 528,
	"progen seed 6 sel 1": 2176,
	"progen seed 7 sel 0": 616,
	"progen seed 7 sel 1": 2640,
	"two-index/tiles0":    347328,
	"two-index/tiles1":    171504,
	"two-index/tiles2":    187384,
	"two-index/tiles3":    100440,
}

// integerStats projects the order-independent part of the statistics.
func integerStats(s disk.Stats) [4]int64 {
	return [4]int64{s.ReadOps, s.WriteOps, s.BytesRead, s.BytesWritten}
}

// TestPipelineMatchesSerialAllPlacements is the engine's central
// property: for EVERY placement combination and several tile shapes of the
// fused two-index transform, and for generated programs, every schedule —
// serial (depth 0), PipelineDepth 1 and PipelineDepth 4, plus the default
// pipelined depth — is bit-identical to serial execution and moves exactly
// the same disk bytes and operations; the depth-0 watermark is the old
// serial interpreter's; and stopping at any unit boundary and resuming
// lands on the same bytes at every depth.
func TestPipelineMatchesSerialAllPlacements(t *testing.T) {
	cases := append(twoIndexCases(t), progenCases(t)...)
	peaks := map[string]int64{}
	for _, tc := range cases {
		run := func(be disk.Backend, inputs map[string]*tensor.Tensor, opt Options) *Result {
			res, err := Run(tc.plan, be, inputs, opt)
			if err != nil {
				t.Fatalf("%s (%+v): %v", tc.name, opt, err)
			}
			return res
		}
		fresh := func(opt Options) *Result {
			be := disk.NewSim(tc.cfg.Disk, true)
			defer be.Close()
			return run(be, tc.inputs, opt)
		}
		serial := fresh(Options{})
		piped := fresh(Options{Pipeline: true})
		bitIdentical(t, piped.Outputs[tc.out], serial.Outputs[tc.out], "pipelined output")
		sameIO(t, piped.Stats, serial.Stats, "all-placements")
		if piped.Pipeline == nil {
			t.Fatal("pipelined run must report PipelineStats")
		}
		if o, s := piped.Pipeline.OverlappedSeconds, piped.Pipeline.SerialSeconds; o > s+1e-12 {
			t.Fatalf("%s: overlapped %.9f exceeds serial %.9f", tc.name, o, s)
		}
		if serial.Pipeline != nil {
			t.Fatalf("%s: serial run reports PipelineStats", tc.name)
		}
		peaks[tc.group] += serial.PeakBufferBytes

		schedules := []Options{{}, {Pipeline: true, PipelineDepth: 1}, {Pipeline: true, PipelineDepth: 4}}
		for _, opt := range schedules {
			ctx := fmt.Sprintf("%s depth %d", tc.name, opt.PipelineDepth)
			got := serial
			if opt.Pipeline {
				got = fresh(opt)
			}
			bitIdentical(t, got.Outputs[tc.out], serial.Outputs[tc.out], ctx)
			if integerStats(got.Stats) != integerStats(serial.Stats) {
				t.Fatalf("%s: I/O counts %v != serial %v", ctx, got.Stats, serial.Stats)
			}
			if !tc.resume || !Checkpointable(tc.plan) {
				continue
			}
			// Stop after every possible number of units, resume on the same
			// backend, and land on the uninterrupted bytes.
			for stop := int64(1); ; stop++ {
				be := disk.NewSim(tc.cfg.Disk, true)
				so := opt
				so.StopAfter = stop
				first := run(be, tc.inputs, so)
				if first.Stopped == nil {
					bitIdentical(t, first.Outputs[tc.out], serial.Outputs[tc.out], ctx+" unstopped")
					be.Close()
					break
				}
				ro := opt
				ro.Resume = first.Stopped
				second := run(be, nil, ro)
				if second.Stopped != nil {
					t.Fatalf("%s stop %d: resumed run should complete", ctx, stop)
				}
				bitIdentical(t, second.Outputs[tc.out], serial.Outputs[tc.out], fmt.Sprintf("%s resumed after %d units", ctx, stop))
				be.Close()
			}
		}
	}
	for group, got := range peaks {
		if want, ok := serialPeakBytes[group]; !ok || got != want {
			t.Errorf("%s: depth-0 PeakBufferBytes total %d, serial interpreter recorded %d (known: %v)", group, got, want, ok)
		}
	}
}

// TestPipelineWatermarkWithinLimit checks the double-buffer memory
// accounting: shadow slots may at most double the plan's static footprint
// and are only allocated while the machine's memory limit holds.
func TestPipelineWatermarkWithinLimit(t *testing.T) {
	nmn, nij := int64(12), int64(16)
	prog := loops.TwoIndexFused(nmn, nij)
	cfg := machine.Small(64 << 10)
	p := buildProblem(t, prog, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(nmn, nij), 3)
	plan, err := codegen.Generate(p, p.Encode(map[string]int64{"i": 4, "j": 4, "m": 6, "n": 8}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if plan.MemoryBytes() > cfg.MemoryLimit {
		t.Fatalf("test plan should fit the machine: %d > %d", plan.MemoryBytes(), cfg.MemoryLimit)
	}
	be := disk.NewSim(cfg.Disk, true)
	defer be.Close()
	res, err := Run(plan, be, inputs, Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakBufferBytes > cfg.MemoryLimit {
		t.Fatalf("pipelined watermark %d exceeds machine limit %d", res.PeakBufferBytes, cfg.MemoryLimit)
	}
	if res.PeakBufferBytes > 2*plan.MemoryBytes() {
		t.Fatalf("pipelined watermark %d exceeds double the static footprint %d", res.PeakBufferBytes, plan.MemoryBytes())
	}
}

// TestPipelineOverlapFourIndex runs the four-index transform dry-run at a
// scale where compute time is significant (OSC Itanium-2 model) and
// requires the pipelined critical path to be strictly shorter than the
// serial one, with identical I/O totals.
func TestPipelineOverlapFourIndex(t *testing.T) {
	n, v := int64(48), int64(32)
	prog := loops.FourIndexAbstract(n, v)
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 8 << 20 // force a genuinely out-of-core tiling at test scale
	p := buildProblem(t, prog, cfg)
	plan, err := codegen.Generate(p, p.Encode(map[string]int64{
		"p": 16, "q": 16, "r": 16, "s": 16, "a": 16, "b": 16, "c": 16, "d": 16,
	}, nil))
	if err != nil {
		t.Fatal(err)
	}
	run := func(opt Options) *Result {
		be := disk.NewSim(cfg.Disk, false)
		defer be.Close()
		opt.DryRun = true
		res, err := Run(plan, be, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(Options{})
	piped := run(Options{Pipeline: true})
	sameIO(t, piped.Stats, serial.Stats, "four-index dry run")
	ps := piped.Pipeline
	if ps == nil {
		t.Fatal("pipelined run must report PipelineStats")
	}
	if ps.ComputeSeconds <= 0 {
		t.Fatalf("expected nonzero modelled compute time, got %v", ps.ComputeSeconds)
	}
	if ps.OverlappedSeconds >= ps.SerialSeconds {
		t.Fatalf("no overlap: overlapped %.3f s >= serial %.3f s", ps.OverlappedSeconds, ps.SerialSeconds)
	}
	lower := math.Max(ps.IOSeconds, ps.ComputeSeconds)
	if ps.OverlappedSeconds < lower-1e-9 {
		t.Fatalf("overlapped %.3f s below the max(I/O, compute) bound %.3f s", ps.OverlappedSeconds, lower)
	}
	if ps.PrefetchedReads == 0 {
		t.Fatal("expected prefetched reads on a multi-tile plan")
	}
	if ps.WriteBehindWrites == 0 {
		t.Fatal("expected write-behind writes")
	}
}

// TestPipelineOnCluster runs the pipelined engine against an R=1 ring
// (the GA/DRA block distribution, native async collectives) and checks
// bit-identical results.
func TestPipelineOnCluster(t *testing.T) {
	nmn, nij := int64(6), int64(8)
	prog := loops.TwoIndexFused(nmn, nij)
	cfg := machine.Small(1 << 20)
	p := buildProblem(t, prog, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(nmn, nij), 11)
	plan, err := codegen.Generate(p, p.Encode(map[string]int64{"i": 3, "j": 5, "m": 4, "n": 5}, nil))
	if err != nil {
		t.Fatal(err)
	}
	run := func(opt Options) *Result {
		cl, err := ring.New(ring.Options{Shards: 4, Replicas: 1, Disk: cfg.Disk, WithData: true})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		res, err := Run(plan, cl, inputs, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(Options{})
	piped := run(Options{Pipeline: true, Workers: 2})
	bitIdentical(t, piped.Outputs["B"], serial.Outputs["B"], "cluster pipelined output")
}

// TestPipelineCrashAndResume checks that the unit barrier keeps
// StopAfter/Resume checkpointing exact under the pipelined engine.
func TestPipelineCrashAndResume(t *testing.T) {
	cfg := machine.Small(4 << 10)
	plan := crashResumePlan(t, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 9)

	ref, err := Run(plan, disk.NewSim(cfg.Disk, true), inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for stop := int64(1); stop <= 3; stop++ {
		dir := t.TempDir()
		fs1, err := disk.NewFileStore(dir, cfg.Disk)
		if err != nil {
			t.Fatal(err)
		}
		first, err := Run(plan, fs1, inputs, Options{Pipeline: true, StopAfter: stop})
		if err != nil {
			t.Fatal(err)
		}
		if first.Stopped == nil {
			t.Fatalf("stop=%d: pipelined run was not interrupted", stop)
		}
		fs1.Close()

		fs2, err := disk.NewFileStore(dir, cfg.Disk)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Run(plan, fs2, nil, Options{Pipeline: true, Resume: first.Stopped})
		if err != nil {
			t.Fatalf("stop=%d: resume: %v", stop, err)
		}
		bitIdentical(t, second.Outputs["B"], ref.Outputs["B"], "resumed pipelined output")
		fs2.Close()
	}
}

// TestRunContextCancelled checks that a cancelled context aborts both
// engines with a context error.
func TestRunContextCancelled(t *testing.T) {
	cfg := machine.Small(4 << 10)
	plan := crashResumePlan(t, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opt := range []Options{{}, {Pipeline: true}} {
		be := disk.NewSim(cfg.Disk, true)
		_, err := RunContext(ctx, plan, be, inputs, opt)
		if err == nil || !errorsIsCancel(err) {
			t.Fatalf("pipeline=%v: want context cancellation error, got %v", opt.Pipeline, err)
		}
		be.Close()
	}
}

func errorsIsCancel(err error) bool {
	return err != nil && context.Canceled == rootCause(err)
}

func rootCause(err error) error {
	for {
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return err
		}
		err = u.Unwrap()
	}
}
