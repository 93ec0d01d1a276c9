package exec

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// fourIndexFaultPlan builds the paper's four-index transform at test
// scale with partial tiles — the acceptance workload for fault
// injection.
func fourIndexFaultPlan(t *testing.T) (*codegen.Plan, map[string]*tensor.Tensor, machine.Config) {
	t.Helper()
	n, v := int64(7), int64(5)
	prog := loops.FourIndexAbstract(n, v)
	cfg := machine.Small(1 << 22)
	p := buildProblem(t, prog, cfg)
	x := p.Encode(map[string]int64{"p": 3, "q": 4, "r": 2, "s": 5, "a": 2, "b": 3, "c": 4, "d": 1}, nil)
	plan, err := codegen.Generate(p, x)
	if err != nil {
		t.Fatal(err)
	}
	inputs := expr.RandomInputs(expr.FourIndexTransform(n, v), 7)
	return plan, inputs, cfg
}

// TestFourIndexTransientFaultsBitIdentical is the headline acceptance
// scenario: a four-index-transform run under seeded transient fault
// injection on reads and writes completes via retries, in both engines,
// with output bit-identical to the fault-free run and retry tallies
// matching the injector's schedule.
func TestFourIndexTransientFaultsBitIdentical(t *testing.T) {
	plan, inputs, cfg := fourIndexFaultPlan(t)

	ref, err := Run(plan, disk.NewSim(cfg.Disk, true), inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, pipeline := range []bool{false, true} {
		inj := fault.Wrap(disk.NewSim(cfg.Disk, true), fault.Config{
			Seed:           42,
			Rate:           0.05, // reads and writes
			TornRate:       0.05, // writes only
			LatencyRate:    0.02,
			LatencySeconds: 0.01,
		})
		// The injector stream is in program order under both schedules,
		// so MaxConsecutive caps what one op's retries can draw; plain
		// Run must absorb the schedule deterministically (no restart net).
		res, err := Run(plan, inj, inputs, Options{
			Pipeline: pipeline,
			Retry:    disk.DefaultRetryPolicy(),
		})
		if err != nil {
			t.Fatalf("pipeline=%v: faulted run failed: %v", pipeline, err)
		}
		c := inj.Counts()
		if c.Faults() == 0 {
			t.Fatalf("pipeline=%v: schedule injected no faults (ops=%d)", pipeline, c.Ops)
		}
		if res.Retry.FaultsSeen != c.Faults() {
			t.Fatalf("pipeline=%v: engine saw %d faults, injector scheduled %d",
				pipeline, res.Retry.FaultsSeen, c.Faults())
		}
		if res.Retry.Retries < c.Faults() || res.Retry.RetrySeconds <= 0 {
			t.Fatalf("pipeline=%v: implausible retry tallies %+v for %d faults",
				pipeline, res.Retry, c.Faults())
		}
		for name, want := range ref.Outputs {
			if d := tensor.MaxAbsDiff(res.Outputs[name], want); d != 0 {
				t.Fatalf("pipeline=%v: output %q differs from fault-free run by %g", pipeline, name, d)
			}
		}
	}
}

// TestRunResilientRecoversFromPersistentFaults exercises the full
// recovery loop: a persistent-fault window aborts the run, RunResilient
// rolls back to a checkpoint and resumes, and after the window is
// consumed the run completes bit-identically.
func TestRunResilientRecoversFromPersistentFaults(t *testing.T) {
	cfg := machine.Small(4 << 10)
	plan := crashResumePlan(t, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 9)
	ref, err := Run(plan, disk.NewSim(cfg.Disk, true), inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, pipeline := range []bool{false, true} {
		inj := fault.Wrap(disk.NewSim(cfg.Disk, true), fault.Config{
			Seed:            1,
			Rate:            0.03,
			PersistentAfter: 40,
			PersistentOps:   2,
		})
		res, rep, err := RunResilient(nil, plan, inj, inputs, Options{
			Pipeline: pipeline,
			Retry:    disk.DefaultRetryPolicy(),
		}, RecoveryOptions{MaxRestarts: 4})
		if err != nil {
			t.Fatalf("pipeline=%v: recovery failed: %v\nreport: %s", pipeline, err, rep)
		}
		c := inj.Counts()
		if c.Persistent == 0 {
			t.Fatalf("pipeline=%v: persistent window never hit (ops=%d)", pipeline, c.Ops)
		}
		if rep.Restarts < 1 || rep.Restarts > c.Persistent {
			t.Fatalf("pipeline=%v: restarts %d outside [1, %d]", pipeline, rep.Restarts, c.Persistent)
		}
		if !pipeline && rep.Restarts != c.Persistent {
			// Serial runs abort on the first persistent fault, so each
			// restart consumes exactly one window ordinal.
			t.Fatalf("serial: restarts %d != persistent faults %d", rep.Restarts, c.Persistent)
		}
		if rep.FaultsSeen != c.Faults() {
			t.Fatalf("pipeline=%v: report saw %d faults, injector scheduled %d",
				pipeline, rep.FaultsSeen, c.Faults())
		}
		if len(rep.ResumePoints) != int(rep.Restarts) {
			t.Fatalf("pipeline=%v: %d resume points for %d restarts", pipeline, len(rep.ResumePoints), rep.Restarts)
		}
		if !RecoverySafe(plan) {
			for _, cp := range rep.ResumePoints {
				if cp != (Checkpoint{}) {
					t.Fatalf("pipeline=%v: non-recovery-safe plan must restart from zero, got %+v", pipeline, cp)
				}
			}
		}
		if rep.TotalStats.Time() <= ref.Stats.Time() {
			t.Fatalf("pipeline=%v: recovery total time %.3f not above clean run %.3f",
				pipeline, rep.TotalStats.Time(), ref.Stats.Time())
		}
		if res.Recovery != rep {
			t.Fatalf("pipeline=%v: Result.Recovery not attached", pipeline)
		}
		if d := tensor.MaxAbsDiff(res.Outputs["B"], ref.Outputs["B"]); d != 0 {
			t.Fatalf("pipeline=%v: recovered output differs by %g", pipeline, d)
		}
	}
}

// TestRunResilientReopensFileStore covers the crashed-process shape: the
// backend is rebuilt via Reopen before each restart, and the fault
// schedule keeps running across the swap.
func TestRunResilientReopensFileStore(t *testing.T) {
	cfg := machine.Small(4 << 10)
	plan := crashResumePlan(t, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 9)
	ref, err := Run(plan, disk.NewSim(cfg.Disk, true), inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fs, err := disk.NewFileStore(dir, cfg.Disk)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.Wrap(fs, fault.Config{Seed: 3, PersistentAfter: 30, PersistentOps: 1})
	reopens := 0
	res, rep, err := RunResilient(nil, plan, inj, inputs, Options{
		Retry: disk.DefaultRetryPolicy(),
	}, RecoveryOptions{
		Reopen: func() (disk.Backend, error) {
			reopens++
			fs.Close()
			nfs, err := disk.NewFileStore(dir, cfg.Disk)
			if err != nil {
				return nil, err
			}
			fs = nfs
			inj.Swap(nfs)
			return inj, nil
		},
	})
	if err != nil {
		t.Fatalf("recovery with reopen failed: %v\nreport: %s", err, rep)
	}
	defer fs.Close()
	if reopens == 0 || rep.Restarts == 0 {
		t.Fatalf("reopen path not exercised: %d reopens, %d restarts", reopens, rep.Restarts)
	}
	if d := tensor.MaxAbsDiff(res.Outputs["B"], ref.Outputs["B"]); d != 0 {
		t.Fatalf("recovered FileStore output differs by %g", d)
	}
}

// TestRunResilientExhaustedBudgetFailsTyped is the negative acceptance
// scenario: a persistent fault outlasting the restart budget must fail
// with a typed, attributed error — not hang or silently truncate.
func TestRunResilientExhaustedBudgetFailsTyped(t *testing.T) {
	cfg := machine.Small(4 << 10)
	plan := crashResumePlan(t, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 9)

	for _, pipeline := range []bool{false, true} {
		inj := fault.Wrap(disk.NewSim(cfg.Disk, true), fault.Config{
			Seed:            2,
			PersistentAfter: 30,
			PersistentOps:   1 << 30, // effectively forever
		})
		res, rep, err := RunResilient(nil, plan, inj, inputs, Options{
			Pipeline: pipeline,
			Retry:    disk.DefaultRetryPolicy(),
		}, RecoveryOptions{MaxRestarts: 2})
		if err == nil {
			t.Fatalf("pipeline=%v: expected failure, got result %+v", pipeline, res)
		}
		if rep.Restarts != 2 {
			t.Fatalf("pipeline=%v: budget of 2 restarts, used %d", pipeline, rep.Restarts)
		}
		var ioe *disk.IOError
		if !errors.As(err, &ioe) {
			t.Fatalf("pipeline=%v: error not typed: %v", pipeline, err)
		}
		if ioe.Transient() || !errors.Is(err, fault.ErrPersistent) {
			t.Fatalf("pipeline=%v: wrong classification: %v", pipeline, err)
		}
		var re *RunError
		if !errors.As(err, &re) || !re.Staged || re.Checkpoint == nil {
			t.Fatalf("pipeline=%v: missing RunError restart state: %v", pipeline, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "exec: ") || !strings.Contains(msg, ioe.Array) || !strings.Contains(msg, " at ") {
			t.Fatalf("pipeline=%v: error lacks attribution: %q", pipeline, msg)
		}
	}
}

// failNthWrite is a targeted injector for the write-behind regression
// test: it fails the nth write to one array after the write reached the
// backend — exactly where a lost acknowledgement would appear.
type failNthWrite struct {
	*disk.Sim
	array string
	mu    sync.Mutex
	n     int
	seen  int
}

// hit reports whether this write is the designated failure.
func (f *failNthWrite) hit() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen++
	return f.seen == f.n
}

func (f *failNthWrite) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

func (f *failNthWrite) Create(name string, dims []int64) (disk.Array, error) {
	a, err := f.Sim.Create(name, dims)
	if err != nil {
		return nil, err
	}
	return &failNthWriteArray{Array: a, f: f}, nil
}

func (f *failNthWrite) Open(name string) (disk.Array, error) {
	a, err := f.Sim.Open(name)
	if err != nil {
		return nil, err
	}
	return &failNthWriteArray{Array: a, f: f}, nil
}

type failNthWriteArray struct {
	disk.Array
	f *failNthWrite
}

func (a *failNthWriteArray) WriteSection(lo, shape []int64, buf []float64) error {
	if err := a.Array.WriteSection(lo, shape, buf); err != nil {
		return err
	}
	if a.Array.Name() != a.f.array || !a.f.hit() {
		return nil
	}
	return disk.NewIOError("write", a.f.array, lo, shape, false, fmt.Errorf("simulated device error"))
}

// TestWriteBehindFaultSurfacesAtBarrier checks a pipelined run fails fast
// on a write-behind: a backend error on a write the model retires behind
// compute surfaces at once — typed, with array and position attribution —
// and stops the run before any later unit, not at Close.
func TestWriteBehindFaultSurfacesAtBarrier(t *testing.T) {
	cfg := machine.Small(4 << 10)
	plan := crashResumePlan(t, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 9)

	// Count the output writes of a clean run, then fail one in the middle.
	counter := &failNthWrite{Sim: disk.NewSim(cfg.Disk, true), array: "B", n: -1}
	if _, err := Run(plan, counter, inputs, Options{Pipeline: true}); err != nil {
		t.Fatal(err)
	}
	total := counter.total()
	if total < 2 {
		t.Fatalf("plan performs only %d write-behinds to B; need a mid-run one", total)
	}

	be := &failNthWrite{Sim: disk.NewSim(cfg.Disk, true), array: "B", n: total / 2}
	_, err := Run(plan, be, inputs, Options{Pipeline: true})
	if err == nil {
		t.Fatal("faulted write-behind did not surface")
	}
	var ioe *disk.IOError
	if !errors.As(err, &ioe) || ioe.Op != "write" || ioe.Array != "B" {
		t.Fatalf("write-behind error not typed/attributed: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, `write to "B"`) || !strings.Contains(msg, " at ") {
		t.Fatalf("write-behind error lacks array+position attribution: %q", msg)
	}
	// The failed write stopped the run: later units never wrote.
	if seen := be.total(); seen >= total {
		t.Fatalf("the run made all %d writes to B; the failure did not stop it at the barrier", seen)
	}
	// With retries enabled the same mid-pipeline write fault, made
	// transient, is absorbed and the run completes bit-identically.
	ref, err := Run(plan, disk.NewSim(cfg.Disk, true), inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The injector's op stream is in program order: an op's retries are
	// consecutive injector ops, so MaxConsecutive bounds the faults one op
	// can draw and recovery is guaranteed, not probabilistic.
	inj := fault.Wrap(disk.NewSim(cfg.Disk, true), fault.Config{Seed: 8, TornRate: 0.3})
	res, err := Run(plan, inj, inputs, Options{Pipeline: true, Retry: disk.DefaultRetryPolicy()})
	if err != nil {
		t.Fatalf("retried torn writes should recover: %v", err)
	}
	if inj.Counts().Torn == 0 {
		t.Fatal("no torn writes injected")
	}
	if d := tensor.MaxAbsDiff(res.Outputs["B"], ref.Outputs["B"]); d != 0 {
		t.Fatalf("recovered pipelined output differs by %g", d)
	}
}

// TestRecoverySafe pins the static predicate gating mid-plan resumes.
func TestRecoverySafe(t *testing.T) {
	cfg := machine.Small(4 << 10)
	plan := crashResumePlan(t, cfg)
	var read, write *codegen.IO
	var find func(ns []codegen.Node)
	find = func(ns []codegen.Node) {
		for _, n := range ns {
			switch n := n.(type) {
			case *codegen.Loop:
				find(n.Body)
			case *codegen.IO:
				if n.Read && read == nil {
					read = n
				}
				if !n.Read && write == nil {
					write = n
				}
			}
		}
	}
	find(plan.Body)
	if read == nil || write == nil || read.Array == write.Array {
		t.Fatalf("plan lacks distinct read/write arrays (read=%v write=%v)", read, write)
	}

	mk := func(body ...codegen.Node) *codegen.Plan {
		p2 := *plan
		p2.Body = body
		return &p2
	}
	loop := func(body ...codegen.Node) *codegen.Loop {
		return &codegen.Loop{Index: "i", Range: 4, Tile: 2, Body: body}
	}
	if !RecoverySafe(mk(read)) {
		t.Fatal("top-level read must be recovery safe")
	}
	if !RecoverySafe(mk(loop(read, write))) {
		t.Fatal("item reading and writing distinct arrays must be recovery safe")
	}
	rw := &codegen.IO{Read: true, Array: write.Array, Buffer: write.Buffer}
	if RecoverySafe(mk(loop(rw, write))) {
		t.Fatal("read-modify-write item must not be recovery safe")
	}
	if RecoverySafe(mk(loop(read), loop(&codegen.InitPass{Array: read.Array}, read))) {
		t.Fatal("init pass must count as a write")
	}
	if RecoverySafe(mk(write)) {
		t.Fatal("non-checkpointable plan must not be recovery safe")
	}
	if !RecoverySafe(mk(loop(&codegen.InitPass{Array: write.Array}, write))) {
		t.Fatal("init plus write of the same array (no read) must be recovery safe")
	}
}

// TestRetryTimelineAndMetrics checks modelled-time reconciliation: the
// retried attempts' extra seconds are charged to the run's timeline and
// mirrored into the metrics registry.
func TestRetryTimelineAndMetrics(t *testing.T) {
	cfg := machine.Small(4 << 10)
	plan := crashResumePlan(t, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 9)

	clean, err := Run(plan, disk.NewSim(cfg.Disk, true), inputs, Options{Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	// See TestWriteBehindFaultSurfacesAtBarrier: a program-order op
	// stream lets MaxConsecutive guarantee that retries absorb the
	// schedule (plain Run has no restart net behind it).
	inj := fault.Wrap(disk.NewSim(cfg.Disk, true), fault.Config{Seed: 6, Rate: 0.2, TornRate: 0.1})
	res, err := Run(plan, inj, inputs, Options{
		Pipeline: true,
		Retry:    disk.DefaultRetryPolicy(),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retry.Retries == 0 {
		t.Fatal("schedule produced no retries")
	}
	snap := reg.Snapshot()
	if snap.Counters["exec.io.faults"] != res.Retry.FaultsSeen ||
		snap.Counters["exec.io.retries"] != res.Retry.Retries {
		t.Fatalf("metrics mirror mismatch: %+v vs %v", res.Retry, snap.Counters)
	}
	// The pipelined timeline charges the retry seconds to the I/O clock
	// as they happen: the faulted run's modelled I/O exceeds the clean
	// run's by at least the retried attempts' time (backoff delays
	// included).
	extra := res.Pipeline.IOSeconds - clean.Pipeline.IOSeconds
	if extra < res.Retry.RetrySeconds-1e-9 {
		t.Fatalf("timeline missing retry charge: extra I/O %.6f < retry seconds %.6f",
			extra, res.Retry.RetrySeconds)
	}
	// And the backend's Stats see every physical attempt: strictly more
	// ops than the clean run.
	if res.Stats.ReadOps+res.Stats.WriteOps <= clean.Stats.ReadOps+clean.Stats.WriteOps {
		t.Fatal("retried attempts not charged to backend stats")
	}
}

// failSection fails the section reads (or writes) of one array at one
// lo, past the first skip of them, with a persistent typed error: a
// fault keyed on the section, not on an operation count, so it is the
// same operation under both schedules.
type failSection struct {
	disk.Backend
	array string
	lo    []int64
	write bool
	mu    sync.Mutex
	skip  int
}

func (f *failSection) Create(name string, dims []int64) (disk.Array, error) {
	a, err := f.Backend.Create(name, dims)
	return &failSectionArray{Array: a, f: f}, err
}

type failSectionArray struct {
	disk.Array
	f *failSection
}

func (a *failSectionArray) fails(write bool, lo, shape []int64) error {
	f := a.f
	if write != f.write || a.Name() != f.array || !slices.Equal(lo, f.lo) {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.skip > 0 {
		f.skip--
		return nil
	}
	return disk.NewIOError("io", a.Name(), lo, shape, false, fmt.Errorf("simulated device error"))
}

func (a *failSectionArray) ReadSection(lo, shape []int64, buf []float64) error {
	if err := a.fails(false, lo, shape); err != nil {
		return err
	}
	return a.Array.ReadSection(lo, shape, buf)
}

func (a *failSectionArray) WriteSection(lo, shape []int64, buf []float64) error {
	if err := a.fails(true, lo, shape); err != nil {
		return err
	}
	return a.Array.WriteSection(lo, shape, buf)
}

// TestPipelinedFailureAttribution pins the failure text, loop position
// included, of a failed section operation under both schedules. The
// strings are the ones the engine reported when it formatted the position
// at issue.
func TestPipelinedFailureAttribution(t *testing.T) {
	cfg := machine.Small(4 << 10)
	plan := crashResumePlan(t, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 9)
	for _, tc := range []struct {
		array string
		lo    []int64
		write bool
		skip  int
		err   string
	}{
		{"A", []int64{15, 8}, false, 0, `exec: read of "A" at i=15,n=0,j=8: disk: io "A" section lo=[15 8] shape=[1 4] (persistent): simulated device error`},
		{"C1", []int64{5, 0}, false, 0, `exec: read of "C1" at i=0,n=0,m=5: disk: io "C1" section lo=[5 0] shape=[5 3] (persistent): simulated device error`},
		{"C2", []int64{6, 12}, false, 1, `exec: read of "C2" at i=3,n=6,j=12: disk: io "C2" section lo=[6 12] shape=[6 4] (persistent): simulated device error`},
		// The first write of each B section is the init pass's.
		{"B", []int64{5, 6}, true, 1, `exec: write to "B" at i=0,n=6,m=5: disk: io "B" section lo=[5 6] shape=[5 6] (persistent): simulated device error`},
		{"B", []int64{10, 6}, true, 3, `exec: write to "B" at i=6,n=6,m=10: disk: io "B" section lo=[10 6] shape=[2 6] (persistent): simulated device error`},
	} {
		for _, pipeline := range []bool{false, true} {
			be := &failSection{Backend: disk.NewSim(cfg.Disk, true), array: tc.array, lo: tc.lo, write: tc.write, skip: tc.skip}
			_, err := Run(plan, be, inputs, Options{Pipeline: pipeline})
			var ioe *disk.IOError
			if !errors.As(err, &ioe) || ioe.Array != tc.array {
				t.Fatalf("%s%v pipeline=%v: want a typed error on %s, got %v", tc.array, tc.lo, pipeline, tc.array, err)
			}
			if err.Error() != tc.err {
				t.Errorf("%s%v pipeline=%v: error %q, want %q", tc.array, tc.lo, pipeline, err.Error(), tc.err)
			}
		}
	}
}

// TestDepthZeroFailsFast pins the serial schedule's failure contract: with
// a persistent fault window opening at injector ordinal k (staging
// included), the run touches the backend exactly k times, stops at the
// first failed operation — no later step is issued — and reports the same
// attributed error text and last completed checkpoint as the tree-walking
// serial interpreter did at commit 1ad8369 (strings recorded there).
func TestDepthZeroFailsFast(t *testing.T) {
	cfg := machine.Small(4 << 10)
	plan := crashResumePlan(t, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 9)
	staging := int64(0)
	for _, da := range plan.DiskArrays {
		if da.Kind == loops.Input {
			staging++
		}
	}
	for _, tc := range []struct {
		k      int64
		err    string
		item   int64
		iter   int64
		wasted float64
	}{
		{4, `exec: init pass over "B": tile at lo=[0 6]: disk: write "B" section lo=[0 6] shape=[5 6] (persistent): fault: injected persistent fault`, 0, 0, 0.001003},
		{9, `exec: read of "A" at i=0,n=0,j=0: disk: read "A" section lo=[0 0] shape=[3 4] (persistent): fault: injected persistent fault`, 1, 0, 0},
		{17, `exec: read of "C1" at i=0,n=0,m=0: disk: read "C1" section lo=[0 0] shape=[5 3] (persistent): fault: injected persistent fault`, 1, 0, 0.00801152},
		{41, `exec: read of "B" at i=0,n=6,m=10: disk: read "B" section lo=[10 6] shape=[2 6] (persistent): fault: injected persistent fault`, 1, 0, 0.03205256},
		{60, `exec: read of "A" at i=3,n=6,j=0: disk: read "A" section lo=[3 0] shape=[3 4] (persistent): fault: injected persistent fault`, 1, 1, 0.01702736},
		{200, `exec: read of "A" at i=15,n=6,j=8: disk: read "A" section lo=[15 8] shape=[1 4] (persistent): fault: injected persistent fault`, 1, 5, 0.02102736},
	} {
		inj := fault.Wrap(disk.NewSim(cfg.Disk, true), fault.Config{Seed: 2, PersistentAfter: tc.k, PersistentOps: 1 << 30})
		_, err := Run(plan, inj, inputs, Options{Retry: disk.DefaultRetryPolicy()})
		var re *RunError
		if !errors.As(err, &re) || re.Checkpoint == nil {
			t.Fatalf("k=%d: want a RunError with a checkpoint, got %v", tc.k, err)
		}
		if c := inj.Counts(); c.Ops != tc.k+1 || c.Persistent != 1 {
			t.Errorf("k=%d: injector saw %d ops, %d persistent faults; a fail-fast run issues k+1 and draws 1", tc.k, c.Ops, c.Persistent)
		}
		if got := re.Stats.ReadOps + re.Stats.WriteOps; got != tc.k-staging {
			t.Errorf("k=%d: backend served %d section ops after staging, want %d", tc.k, got, tc.k-staging)
		}
		if err.Error() != tc.err {
			t.Errorf("k=%d: error %q, serial interpreter reported %q", tc.k, err.Error(), tc.err)
		}
		if *re.Checkpoint != (Checkpoint{Item: tc.item, Iter: tc.iter}) {
			t.Errorf("k=%d: checkpoint %+v, serial interpreter reported {%d %d}", tc.k, *re.Checkpoint, tc.item, tc.iter)
		}
		if !closeRel(re.WastedSeconds, tc.wasted) {
			t.Errorf("k=%d: wasted %.9g modelled seconds past the checkpoint, serial interpreter reported %.9g", tc.k, re.WastedSeconds, tc.wasted)
		}
		if !errors.Is(err, fault.ErrPersistent) || re.Retry.Retries != 0 {
			t.Errorf("k=%d: persistent fault must not be retried: %v, %+v", tc.k, err, re.Retry)
		}
	}
}

// TestPipelineFaultsDeterministic is the same-seed determinism gate for
// faulted pipelined runs: the fault injector keys its schedule on the
// operation ordinal, and a pipelined run issues the serial run's
// operations in the serial run's order, so under transient faults and
// retries it draws the same faults — the same injector counts, backend
// Stats, retry tallies and failure text as the serial run — and two runs
// write byte-identical event logs under a pinned clock.
func TestPipelineFaultsDeterministic(t *testing.T) {
	cfg := machine.Small(4 << 10)
	plan := crashResumePlan(t, cfg)
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 9)
	type outcome struct {
		counts fault.Counts
		stats  disk.Stats
		retry  RetryStats
		err    string
		log    string
	}
	run := func(fc fault.Config, pipeline bool) outcome {
		var buf strings.Builder
		log := obs.NewLogAt(obs.LevelDebug, obs.NewWriterSink(&buf), func() time.Time { return time.Unix(0, 0) })
		inj := fault.Wrap(disk.NewSim(cfg.Disk, true), fc)
		inj.SetLog(log)
		defer inj.Close()
		res, err := Run(plan, inj, inputs, Options{Pipeline: pipeline, Retry: disk.DefaultRetryPolicy(), Log: log})
		o := outcome{counts: inj.Counts(), log: buf.String()}
		var re *RunError
		switch {
		case err == nil:
			o.stats, o.retry = res.Stats, res.Retry
		case errors.As(err, &re):
			o.stats, o.retry, o.err = re.Stats, re.Retry, err.Error()
		default:
			t.Fatalf("%s pipeline=%v: untyped failure %v", fc, pipeline, err)
		}
		return o
	}
	for _, tc := range []struct {
		name string
		cfg  fault.Config
		fail bool // the schedule exhausts a retry budget
	}{
		{"absorbed", fault.Config{Seed: 5, Rate: 0.2, TornRate: 0.1, LatencyRate: 0.05, LatencySeconds: 0.002}, false},
		{"exhausted", fault.Config{Seed: 6, Rate: 0.4, MaxConsecutive: 8}, true},
	} {
		serial := run(tc.cfg, false)
		first, second := run(tc.cfg, true), run(tc.cfg, true)
		if (serial.err != "") != tc.fail || serial.counts.Faults() == 0 || serial.retry.Retries == 0 {
			t.Fatalf("%s: schedule did not exercise retries as intended: %+v, error %q", tc.name, serial.counts, serial.err)
		}
		if first.counts != serial.counts {
			t.Errorf("%s: pipelined injector counts %+v, serial %+v", tc.name, first.counts, serial.counts)
		}
		if first.stats != serial.stats || first.retry != serial.retry {
			t.Errorf("%s: pipelined stats %v / %+v, serial %v / %+v", tc.name, first.stats, first.retry, serial.stats, serial.retry)
		}
		if first.err != serial.err {
			t.Errorf("%s: pipelined failure %q, serial %q", tc.name, first.err, serial.err)
		}
		if first.log == "" || first.log != second.log {
			t.Errorf("%s: event logs of two same-seed pipelined runs differ (%d vs %d bytes)", tc.name, len(first.log), len(second.log))
		}
		if first.log != serial.log {
			t.Errorf("%s: pipelined event log differs from the serial run's", tc.name)
		}
	}
}
