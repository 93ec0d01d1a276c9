package trace

import (
	"fmt"
	"math"
	"reflect"
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
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/tiling"
)

func testDisk() machine.Disk {
	return machine.Disk{SeekTime: 0.01, ReadBandwidth: 1000, WriteBandwidth: 500}
}

// closeRel reports whether a and b agree to a relative 1e-9: sums of the
// same per-op seconds taken in another order.
func closeRel(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// total folds every array's account into one.
func total(sums []ArraySummary) ArraySummary {
	var t ArraySummary
	for _, s := range sums {
		t.ReadOps += s.ReadOps
		t.WriteOps += s.WriteOps
		t.BytesRead += s.BytesRead
		t.BytesWrite += s.BytesWrite
		t.Seconds += s.Seconds
	}
	return t
}

func TestRecorderRecordsOps(t *testing.T) {
	d := testDisk()
	r := NewWithDisk(disk.NewSim(d, false), d)
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
	want := []ArraySummary{{Array: "X", ReadOps: 1, WriteOps: 1, BytesRead: 25 * 8, BytesWrite: 25 * 8,
		Seconds: d.ReadTime(25*8, 1) + d.WriteTime(25*8, 1)}}
	if got := r.Summary(); !reflect.DeepEqual(got, want) {
		t.Fatalf("summary %+v, want %+v", got, want)
	}
	// Stats pass through the wrapper.
	if r.Stats().ReadOps != 1 || r.Stats().WriteOps != 1 {
		t.Fatalf("stats wrong: %+v", r.Stats())
	}
	r.ResetStats()
	if len(r.Summary()) != 0 || r.Stats().ReadOps != 0 {
		t.Fatal("ResetStats must clear the account and the stats")
	}
	if err := a.WriteSection([]int64{0, 0}, []int64{1, 10}, nil); err != nil {
		t.Fatal(err)
	}
	want = []ArraySummary{{Array: "X", WriteOps: 1, BytesWrite: 80, Seconds: d.WriteTime(80, 1)}}
	if got := r.Summary(); !reflect.DeepEqual(got, want) {
		t.Fatalf("summary after reset %+v, want %+v", got, want)
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
	if s := r.Summary(); len(s) != 1 || s[0].Array != "X" || s[0].ReadOps != 1 {
		t.Fatalf("opened array not traced: %+v", s)
	}
	if _, err := r.Open("missing"); err == nil {
		t.Fatal("open of missing array must fail")
	}
	if err := a.ReadSection([]int64{0}, []int64{99}, nil); err == nil {
		t.Fatal("errors must propagate and not be recorded")
	}
	if s := r.Summary(); s[0].ReadOps != 1 {
		t.Fatal("failed op must not be recorded")
	}
}

// TestWrongLengthBufferChargesNothing checks that a data-holding Sim
// rejects a buffer of the wrong length before it charges the operation: a
// failed read and write leave Stats and the registry's op counters as they
// were, and Stats still add up to the recorder's account, which charges
// only successful operations.
func TestWrongLengthBufferChargesNothing(t *testing.T) {
	d := testDisk()
	r := NewWithDisk(disk.NewSim(d, true), d)
	defer r.Close()
	reg := obs.NewRegistry()
	disk.AttachMetrics(r, reg)
	a, err := r.Create("X", []int64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	lo, shape := []int64{0, 0}, []int64{2, 2}
	if err := a.WriteSection(lo, shape, make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadSection(lo, shape, make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	stats, counters := r.Stats(), reg.Snapshot().Counters
	if err := a.ReadSection(lo, shape, make([]float64, 3)); err == nil {
		t.Fatal("read into a 3-element buffer of a 4-element section succeeded")
	}
	if err := a.WriteSection(lo, shape, make([]float64, 5)); err == nil {
		t.Fatal("write from a 5-element buffer to a 4-element section succeeded")
	}
	if got := r.Stats(); got != stats {
		t.Errorf("failed operations moved Stats from %+v to %+v", stats, got)
	}
	after := reg.Snapshot().Counters
	for _, m := range []string{disk.MetricReadOps, disk.MetricWriteOps} {
		if after[m] != counters[m] || after[m] != 1 {
			t.Errorf("%s: %d before the failed operations, %d after; want 1 both times", m, counters[m], after[m])
		}
	}
	tot, s := total(r.Summary()), r.Stats()
	if tot.ReadOps != s.ReadOps || tot.WriteOps != s.WriteOps || tot.BytesRead != s.BytesRead || tot.BytesWrite != s.BytesWritten {
		t.Errorf("summary totals %+v, Stats %+v", tot, s)
	}
}

// TestRecorderAsyncPassthrough checks the recorder under overlapping
// callers: every operation is accounted once, with the bytes of its own
// section and the disk model's seconds, however the calls interleave.
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
	want := ArraySummary{Array: "X", ReadOps: callers * rounds, WriteOps: callers * rounds}
	for c := range callers {
		// Caller c owns rows [16c, 16c+16) and moves c+1 of them per op.
		rows := int64(c + 1)
		want.BytesRead += rounds * rows * 8 * 8
		want.Seconds += rounds * (d.ReadTime(rows*8*8, 1) + d.WriteTime(rows*8*8, 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
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
	want.BytesWrite = want.BytesRead
	sums := r.Summary()
	if len(sums) != 1 {
		t.Fatalf("summary %+v, want one array", sums)
	}
	got := sums[0]
	if !closeRel(got.Seconds, want.Seconds) {
		t.Fatalf("seconds %v, model says %v", got.Seconds, want.Seconds)
	}
	got.Seconds = want.Seconds
	if got != want {
		t.Fatalf("account %+v, want %+v", got, want)
	}
	if st := r.Stats(); got.BytesRead+got.BytesWrite != st.BytesRead+st.BytesWritten {
		t.Fatalf("traced bytes %d != backend stats %d", got.BytesRead+got.BytesWrite, st.BytesRead+st.BytesWritten)
	}
	// Failed operations propagate and are not recorded.
	if err := a.ReadSection([]int64{0, 0}, []int64{99, 99}, nil); err == nil {
		t.Fatal("out-of-bounds read must fail")
	}
	if r.Summary()[0].ReadOps != want.ReadOps {
		t.Fatal("failed op must not be recorded")
	}
}

func TestSummarize(t *testing.T) {
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
	// fetch (one read of B) is traced but not counted in res.Stats. The
	// backend's live Stats count it too.
	sums := rec.Summary()
	tot, final := total(sums), rec.Stats()
	if tot.ReadOps != res.Stats.ReadOps+1 || tot.WriteOps != res.Stats.WriteOps {
		t.Fatalf("summary has %d/%d ops, stats say %d/%d (+1 output fetch)",
			tot.ReadOps, tot.WriteOps, res.Stats.ReadOps, res.Stats.WriteOps)
	}
	if tot.ReadOps != final.ReadOps || tot.WriteOps != final.WriteOps ||
		tot.BytesRead != final.BytesRead || tot.BytesWrite != final.BytesWritten {
		t.Fatalf("summary totals %+v != backend stats %+v", tot, final)
	}
	if !closeRel(tot.Seconds, final.Time()) {
		t.Fatalf("summary seconds %v != modelled %v", tot.Seconds, final.Time())
	}
	seen := map[string]bool{}
	for _, s := range sums {
		seen[s.Array] = true
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
	// Same operations and bytes as the serial run, plus the final output
	// fetch, which happens after the stats snapshot and adds one read of B.
	fetch := int64(8 * len(b.Outputs["B"].Data()))
	tot := total(rec.Summary())
	if tot.ReadOps != a.Stats.ReadOps+1 || tot.WriteOps != a.Stats.WriteOps {
		t.Fatalf("summary has %d/%d ops, serial stats say %d/%d (+1 fetch)",
			tot.ReadOps, tot.WriteOps, a.Stats.ReadOps, a.Stats.WriteOps)
	}
	if tot.BytesRead+tot.BytesWrite != a.Stats.BytesRead+a.Stats.BytesWritten+fetch {
		t.Fatalf("traced bytes %d != serial stats %d (+%d fetched)",
			tot.BytesRead+tot.BytesWrite, a.Stats.BytesRead+a.Stats.BytesWritten, fetch)
	}
	if want := a.Stats.Time() + cfg.Disk.ReadTime(fetch, 1); !closeRel(tot.Seconds, want) {
		t.Fatalf("traced seconds %v != modelled %v", tot.Seconds, want)
	}
}
