package exec

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/obs"
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
	group  string // cases of one group share recorded watermark totals and model digests
	resume bool   // also stop at every unit boundary and resume, under both schedules
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
// them at commit 1ad8369, the last one that had it: the serial schedule
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

// modelPin is the modelled timeline of a group of fault-free runs: FNV-64a
// digests of every pipelined run's PipelineStats (all seven fields, floats
// by their bits) and of every serial and pipelined run's trace, plus the
// pipelined runs' summed PeakBufferBytes.
type modelPin struct {
	stats, trace uint64
	peak         int64
}

// pipelineModel holds, per case group of TestPipelineMatchesSerialAllPlacements,
// the modelPin recorded with the goroutine-issuer engine at commit cec96b6,
// the last one that had it: modelling the overlapped timeline from a serial
// walk must reproduce it to the bit.
var pipelineModel = map[string]modelPin{
	"progen seed 0 sel 0": {stats: 0x88cb35c23a2911ff, trace: 0xa9c0cc46513fca81, peak: 768},
	"progen seed 0 sel 1": {stats: 0xe8e0d3abb40d478e, trace: 0xc14f30645784f4c, peak: 1344},
	"progen seed 1 sel 0": {stats: 0xa8d4d29270d25617, trace: 0xbe9cb170ea576771, peak: 256},
	"progen seed 1 sel 1": {stats: 0x3bdd5ac7f9fbedf9, trace: 0x89b2f15564850e74, peak: 344},
	"progen seed 2 sel 0": {stats: 0xa03d8bea1113d210, trace: 0x311a00876eaac42b, peak: 736},
	"progen seed 2 sel 1": {stats: 0x11d4cd3bc0d92404, trace: 0x4c50760bace42f90, peak: 1280},
	"progen seed 3 sel 0": {stats: 0x9dfbf859685f2511, trace: 0xdcbcb0c9e0ca88a1, peak: 456},
	"progen seed 3 sel 1": {stats: 0xc763b901c238de83, trace: 0x1274e690863f7a00, peak: 792},
	"progen seed 4 sel 0": {stats: 0x160f7e9b53cf0657, trace: 0x1261e51a6e0befee, peak: 536},
	"progen seed 4 sel 1": {stats: 0x427c2d337df0b367, trace: 0x47b6a14f59e9b751, peak: 760},
	"progen seed 5 sel 0": {stats: 0x86a43da95894eeaf, trace: 0x458460458a0d9789, peak: 192},
	"progen seed 5 sel 1": {stats: 0x2cf5126d4d8a2929, trace: 0xe79640560b0d4b72, peak: 288},
	"progen seed 6 sel 0": {stats: 0x4dcb802f9a9e8ae0, trace: 0xeecb83ce6fa5954b, peak: 1056},
	"progen seed 6 sel 1": {stats: 0x7980d63622220b9d, trace: 0xbffabd17be519aa4, peak: 2784},
	"progen seed 7 sel 0": {stats: 0x958f1823b098d8c4, trace: 0x80821b86b9100761, peak: 1128},
	"progen seed 7 sel 1": {stats: 0x6d8724978f4c937f, trace: 0x6e6c86a041cc9d62, peak: 3288},
	"two-index/tiles0":    {stats: 0x7df5c37a686fe23e, trace: 0xa473a7fa29c0c898, peak: 347328},
	"two-index/tiles1":    {stats: 0x60a711b558b2ab92, trace: 0x23083bf6820d5875, peak: 258336},
	"two-index/tiles2":    {stats: 0x5153f2431832ffe0, trace: 0xd5e9ed38ca2fe965, peak: 240624},
	"two-index/tiles3":    {stats: 0xf183989b953415fd, trace: 0xe71365d55b85023, peak: 116208},
}

// digest folds 64-bit words into an FNV-64a hash.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digest) float(f float64) { d.word(math.Float64bits(f)) }

func (d digest) str(s string) {
	d.word(uint64(len(s)))
	d.h.Write([]byte(s))
}

// args hashes span or instant arguments in key order.
func (d digest) args(args map[string]any) {
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.word(uint64(len(keys)))
	for _, k := range keys {
		d.str(k)
		switch v := args[k].(type) {
		case float64:
			d.float(v)
		case int64:
			d.word(uint64(v))
		case bool:
			d.str(fmt.Sprint(v))
		default:
			d.str(fmt.Sprintf("%T %v", v, v))
		}
	}
}

// stats hashes every PipelineStats field.
func (d digest) stats(ps *PipelineStats) {
	for _, f := range []float64{ps.SerialSeconds, ps.OverlappedSeconds, ps.IOSeconds, ps.ComputeSeconds} {
		d.float(f)
	}
	for _, n := range []int64{ps.PrefetchedReads, ps.WriteBehindWrites, ps.Barriers} {
		d.word(uint64(n))
	}
}

// trace hashes every span (track, name, start, duration, args) and every
// instant but section-hazard waits, which only the goroutine-issuer engine
// emitted.
func (d digest) trace(tr *obs.Tracer) {
	spans := tr.Spans()
	d.word(uint64(len(spans)))
	for _, s := range spans {
		d.str(s.Track)
		d.str(s.Name)
		d.float(s.Start)
		d.float(s.Dur)
		d.args(s.Args)
	}
	for _, in := range tr.Instants() {
		if strings.HasPrefix(in.Name, "hazard ") {
			continue
		}
		d.str(in.Track)
		d.str(in.Name)
		d.float(in.TS)
		d.args(in.Args)
	}
}

// TestPipelineMatchesSerialAllPlacements is the engine's central
// property: for EVERY placement combination and several tile shapes of the
// fused two-index transform, and for generated programs, the serial and
// the pipelined schedule are bit-identical and move exactly the same disk
// bytes and operations; the serial watermark is the old serial
// interpreter's; the pipelined run's modelled timeline, watermark and
// trace are the goroutine-issuer engine's to the bit; and stopping at any
// unit boundary and resuming lands on the same bytes under both.
func TestPipelineMatchesSerialAllPlacements(t *testing.T) {
	cases := append(twoIndexCases(t), progenCases(t)...)
	peaks := map[string]int64{}
	statsSums, traceSums := map[string]digest{}, map[string]digest{}
	models := map[string]modelPin{}
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
		if _, ok := statsSums[tc.group]; !ok {
			statsSums[tc.group], traceSums[tc.group] = newDigest(), newDigest()
		}
		serialTrace, pipedTrace := obs.NewTracer(), obs.NewTracer()
		serial := fresh(Options{Tracer: serialTrace})
		piped := fresh(Options{Pipeline: true, Tracer: pipedTrace})
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
		statsSums[tc.group].stats(piped.Pipeline)
		traceSums[tc.group].trace(serialTrace)
		traceSums[tc.group].trace(pipedTrace)
		m := models[tc.group]
		m.peak += piped.PeakBufferBytes
		models[tc.group] = m

		for _, opt := range []Options{{}, {Pipeline: true}} {
			ctx := fmt.Sprintf("%s pipeline=%v", tc.name, opt.Pipeline)
			got := serial
			if opt.Pipeline {
				got = piped
			}
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
			t.Errorf("%s: serial PeakBufferBytes total %d, serial interpreter recorded %d (known: %v)", group, got, want, ok)
		}
	}
	groups := make([]string, 0, len(models))
	for group := range models {
		groups = append(groups, group)
	}
	sort.Strings(groups)
	for _, group := range groups {
		got := models[group]
		got.stats, got.trace = statsSums[group].h.Sum64(), traceSums[group].h.Sum64()
		if want, ok := pipelineModel[group]; !ok || got != want {
			t.Errorf("%q: {stats: %#x, trace: %#x, peak: %d}, recorded %+v (known: %v)",
				group, got.stats, got.trace, got.peak, want, ok)
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

// fourIndexOverlap is TestPipelineOverlapFourIndex's pipelined dry run as
// the goroutine-issuer engine reported it at commit cec96b6: its
// PipelineStats float fields by their bits, its counters, and the digest of
// its trace (see digest.trace).
var fourIndexOverlap = struct {
	serial, overlapped, io, compute         uint64
	prefetched, writeBehind, barriers, peak int64
	trace                                   uint64
}{
	serial: 0x403103c27b1d90e1, overlapped: 0x4030bfc18bfbf715, io: 0x40308f700a7f09cd, compute: 0x3fdd149c27a1be17,
	prefetched: 659, writeBehind: 178, barriers: 5, peak: 0,
	trace: 0x98a61a8829851344,
}

// TestPipelineOverlapFourIndex runs the four-index transform dry-run at a
// scale where compute time is significant (OSC Itanium-2 model) and
// requires the pipelined critical path to be strictly shorter than the
// serial one, with identical I/O totals, and the modelled timeline and
// trace to be the goroutine-issuer engine's to the bit.
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
	tr := obs.NewTracer()
	piped := run(Options{Pipeline: true, Tracer: tr})
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
	d := newDigest()
	d.trace(tr)
	got := fourIndexOverlap
	got.serial, got.overlapped = math.Float64bits(ps.SerialSeconds), math.Float64bits(ps.OverlappedSeconds)
	got.io, got.compute = math.Float64bits(ps.IOSeconds), math.Float64bits(ps.ComputeSeconds)
	got.prefetched, got.writeBehind, got.barriers = ps.PrefetchedReads, ps.WriteBehindWrites, ps.Barriers
	got.peak, got.trace = piped.PeakBufferBytes, d.h.Sum64()
	if got != fourIndexOverlap {
		t.Errorf("modelled timeline moved: %#v (%v), recorded %#v", got, ps, fourIndexOverlap)
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
