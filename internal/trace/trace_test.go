package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/tiling"
)

func testDisk() machine.Disk {
	return machine.Disk{SeekTime: 0.01, ReadBandwidth: 1000, WriteBandwidth: 500}
}

func TestRecorderRecordsOps(t *testing.T) {
	r := NewWithDisk(disk.NewSim(testDisk(), false), testDisk())
	defer r.Close()
	a, err := r.Create("X", []int64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ReadSection([]int64{0, 0}, []int64{5, 5}, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteSection([]int64{5, 5}, []int64{5, 5}, nil); err != nil {
		t.Fatal(err)
	}
	ops := r.Ops()
	if len(ops) != 2 {
		t.Fatalf("recorded %d ops, want 2", len(ops))
	}
	if !ops[0].Read || ops[1].Read {
		t.Fatal("directions wrong")
	}
	if ops[0].Bytes != 25*8 || ops[1].Bytes != 25*8 {
		t.Fatalf("bytes wrong: %+v", ops)
	}
	if ops[0].Seq != 0 || ops[1].Seq != 1 {
		t.Fatal("sequence numbers wrong")
	}
	if ops[1].Start <= ops[0].Start {
		t.Fatal("clock must advance")
	}
	// Stats pass through the wrapper.
	if r.Stats().ReadOps != 1 || r.Stats().WriteOps != 1 {
		t.Fatalf("stats wrong: %+v", r.Stats())
	}
	r.ResetStats()
	if len(r.Ops()) != 0 || r.Stats().ReadOps != 0 {
		t.Fatal("ResetStats must clear trace and stats")
	}
}

func TestRecorderOpenWrapsToo(t *testing.T) {
	r := NewWithDisk(disk.NewSim(testDisk(), false), testDisk())
	defer r.Close()
	if _, err := r.Create("X", []int64{4}); err != nil {
		t.Fatal(err)
	}
	a, err := r.Open("X")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "X" || a.Dims()[0] != 4 {
		t.Fatal("wrapped array metadata wrong")
	}
	if err := a.ReadSection([]int64{0}, []int64{4}, nil); err != nil {
		t.Fatal(err)
	}
	if len(r.Ops()) != 1 {
		t.Fatal("opened array not traced")
	}
	if _, err := r.Open("missing"); err == nil {
		t.Fatal("open of missing array must fail")
	}
	if err := a.ReadSection([]int64{0}, []int64{99}, nil); err == nil {
		t.Fatal("errors must propagate and not be recorded")
	}
	if len(r.Ops()) != 1 {
		t.Fatal("failed op must not be recorded")
	}
}

// TestRecorderAsyncPassthrough checks the recorder under overlapping
// callers, as the pipelined engine's issuers drive it: every operation is
// recorded once, with the bytes of its own section and the disk model's
// duration, however the calls interleave.
func TestRecorderAsyncPassthrough(t *testing.T) {
	d := testDisk()
	r := NewWithDisk(disk.NewSim(d, true), d)
	defer r.Close()
	a, err := r.Create("X", []int64{64, 8})
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Caller c owns rows [16c, 16c+16) and moves c+1 of them per op.
			rows := int64(c + 1)
			buf := make([]float64, rows*8)
			for i := range buf {
				buf[i] = float64(c) + 0.5
			}
			got := make([]float64, len(buf))
			for range rounds {
				lo := []int64{int64(16 * c), 0}
				shape := []int64{rows, 8}
				if err := a.WriteSection(lo, shape, buf); err != nil {
					errs <- err
					return
				}
				if err := a.ReadSection(lo, shape, got); err != nil {
					errs <- err
					return
				}
				if got[0] != buf[0] {
					errs <- fmt.Errorf("caller %d read back %v, wrote %v", c, got[0], buf[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ops := r.Ops()
	if len(ops) != 2*callers*rounds {
		t.Fatalf("recorded %d ops, want %d", len(ops), 2*callers*rounds)
	}
	var bytes int64
	for i, op := range ops {
		if op.Seq != int64(i) {
			t.Fatalf("op %d has seq %d", i, op.Seq)
		}
		if want := op.Shape[0] * op.Shape[1] * 8; op.Bytes != want {
			t.Fatalf("op %d: %d bytes, its section holds %d", i, op.Bytes, want)
		}
		want := d.WriteTime(op.Bytes, 1)
		if op.Read {
			want = d.ReadTime(op.Bytes, 1)
		}
		if op.Duration != want {
			t.Fatalf("op %d: duration %v, model says %v", i, op.Duration, want)
		}
		bytes += op.Bytes
	}
	if st := r.Stats(); bytes != st.BytesRead+st.BytesWritten {
		t.Fatalf("traced bytes %d != backend stats %d", bytes, st.BytesRead+st.BytesWritten)
	}
	// Failed operations propagate and are not recorded.
	if err := a.ReadSection([]int64{0, 0}, []int64{99, 99}, nil); err == nil {
		t.Fatal("out-of-bounds read must fail")
	}
	if len(r.Ops()) != len(ops) {
		t.Fatal("failed op must not be recorded")
	}
}

func TestSummarizeAndPhases(t *testing.T) {
	// Trace a real synthesized execution.
	prog := loops.TwoIndexFused(12, 16)
	cfg := machine.Small(3 << 10)
	tree, err := tiling.Tile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := nlp.Build(m)
	plan, err := codegen.Generate(p, p.Encode(map[string]int64{"i": 6, "j": 8, "m": 6, "n": 8}, nil))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewWithDisk(disk.NewSim(cfg.Disk, true), cfg.Disk)
	defer rec.Close()
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 5)
	res, err := exec.Run(plan, rec, inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The engine reads outputs back after its stats snapshot; that final
	// fetch (one read of B) is traced but not counted in res.Stats.
	ops := rec.Ops()
	if int64(len(ops)) != res.Stats.ReadOps+res.Stats.WriteOps+1 {
		t.Fatalf("trace has %d ops, stats say %d (+1 output fetch)", len(ops), res.Stats.ReadOps+res.Stats.WriteOps)
	}
	fetch := ops[len(ops)-1]
	if !fetch.Read || fetch.Array != "B" {
		t.Fatalf("last traced op should be the output fetch, got %+v", fetch)
	}
	ops = ops[:len(ops)-1]
	sums := Summarize(ops)
	var totalBytes int64
	seen := map[string]bool{}
	for _, s := range sums {
		totalBytes += s.BytesRead + s.BytesWrite
		seen[s.Array] = true
	}
	if totalBytes != res.Stats.BytesRead+res.Stats.BytesWritten {
		t.Fatalf("summary bytes %d != stats %d", totalBytes, res.Stats.BytesRead+res.Stats.BytesWritten)
	}
	for _, name := range []string{"A", "C1", "C2", "B"} {
		if !seen[name] {
			t.Fatalf("array %s missing from summary", name)
		}
	}
	// Summaries are time-sorted.
	for i := 1; i < len(sums); i++ {
		if sums[i].Seconds > sums[i-1].Seconds {
			t.Fatal("summaries not sorted by time")
		}
	}
	text := FormatSummary(sums)
	if !strings.Contains(text, "TOTAL") || !strings.Contains(text, "A") {
		t.Fatalf("bad summary:\n%s", text)
	}

	phases := SplitPhases(ops)
	if len(phases) < 2 || len(phases) > len(ops) {
		t.Fatalf("bad phase split: %d phases from %d ops", len(phases), len(ops))
	}
	var phaseOps int64
	for _, ph := range phases {
		phaseOps += ph.Ops
	}
	if phaseOps != int64(len(ops)) {
		t.Fatal("phases do not partition the trace")
	}

	tl := Timeline(ops, 5)
	if !strings.Contains(tl, "#0") || !strings.Contains(tl, "more operations") {
		t.Fatalf("bad timeline:\n%s", tl)
	}
	if full := Timeline(ops, 0); strings.Contains(full, "more operations") {
		t.Fatal("full timeline must not truncate")
	}
}

func TestTracedExecutionNumericallyUnchanged(t *testing.T) {
	// The recorder must be a pure observer.
	prog := loops.TwoIndexFused(8, 8)
	cfg := machine.Small(2 << 10)
	tree, _ := tiling.Tile(prog)
	m, _ := placement.Enumerate(tree, cfg, placement.Options{})
	p := nlp.Build(m)
	plan, err := codegen.Generate(p, p.Encode(map[string]int64{"i": 4, "j": 4, "m": 4, "n": 4}, nil))
	if err != nil {
		t.Fatal(err)
	}
	inputs := expr.RandomInputs(expr.TwoIndexTransform(8, 8), 6)

	plain := disk.NewSim(cfg.Disk, true)
	a, err := exec.Run(plan, plain, inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewWithDisk(disk.NewSim(cfg.Disk, true), cfg.Disk)
	b, err := exec.Run(plan, rec, inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(a.Outputs["B"], b.Outputs["B"]); d != 0 {
		t.Fatalf("tracing changed results by %g", d)
	}
	if a.Stats != b.Stats {
		t.Fatalf("tracing changed stats: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestTracedPipelinedExecutionUnchanged(t *testing.T) {
	// The recorder composes with the pipelined engine: results stay
	// bit-identical to untraced serial execution and the trace covers
	// every operation with the modelled per-op timing.
	prog := loops.TwoIndexFused(8, 8)
	cfg := machine.Small(2 << 10)
	tree, _ := tiling.Tile(prog)
	m, _ := placement.Enumerate(tree, cfg, placement.Options{})
	p := nlp.Build(m)
	plan, err := codegen.Generate(p, p.Encode(map[string]int64{"i": 4, "j": 4, "m": 4, "n": 4}, nil))
	if err != nil {
		t.Fatal(err)
	}
	inputs := expr.RandomInputs(expr.TwoIndexTransform(8, 8), 6)

	plain := disk.NewSim(cfg.Disk, true)
	a, err := exec.Run(plan, plain, inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewWithDisk(disk.NewSim(cfg.Disk, true), cfg.Disk)
	defer rec.Close()
	b, err := exec.Run(plan, rec, inputs, exec.Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(a.Outputs["B"], b.Outputs["B"]); d != 0 {
		t.Fatalf("traced pipelined run changed results by %g", d)
	}
	if b.Pipeline == nil {
		t.Fatal("pipelined run must report PipelineStats through the recorder")
	}
	// Same operations and bytes as the serial run (the final output fetch
	// happens after the stats snapshot and adds one traced read).
	ops := rec.Ops()
	if int64(len(ops)) != a.Stats.ReadOps+a.Stats.WriteOps+1 {
		t.Fatalf("trace has %d ops, serial stats say %d (+1 fetch)", len(ops), a.Stats.ReadOps+a.Stats.WriteOps)
	}
	var bytes int64
	var secs float64
	for _, op := range ops[:len(ops)-1] {
		bytes += op.Bytes
		secs += op.Duration
	}
	if bytes != a.Stats.BytesRead+a.Stats.BytesWritten {
		t.Fatalf("traced bytes %d != serial stats %d", bytes, a.Stats.BytesRead+a.Stats.BytesWritten)
	}
	if want := a.Stats.Time(); secs < want*(1-1e-9) || secs > want*(1+1e-9) {
		t.Fatalf("traced seconds %v != modelled %v", secs, want)
	}
}
