package ooc

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/tensor"
)

// stage creates an array on the backend with deterministic contents and
// returns its tensor.
func stage(t *testing.T, be *disk.Sim, name string, dims ...int) *tensor.Tensor {
	t.Helper()
	d64 := make([]int64, len(dims))
	for i, d := range dims {
		d64[i] = int64(d)
	}
	if _, err := be.Create(name, d64); err != nil {
		t.Fatal(err)
	}
	tt := tensor.New(dims...)
	for i := range tt.Data() {
		tt.Data()[i] = float64((i*2654435761)%1000)/500.0 - 1
	}
	if err := be.LoadArray(name, tt.Data()); err != nil {
		t.Fatal(err)
	}
	return tt
}

func smallOpt() Options {
	return Options{Machine: machine.Small(4 << 10), Seed: 1, MaxEvals: 20000}
}

func TestMatMulOnDiskArrays(t *testing.T) {
	be := disk.NewSim(machine.Small(4<<10).Disk, true)
	defer be.Close()
	a := stage(t, be, "A", 18, 24)
	b := stage(t, be, "B", 24, 15)

	res, err := MatMul(be, "C", "A", "B", smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReadOps == 0 {
		t.Fatal("no I/O recorded")
	}
	got, err := be.DumpArray("C")
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MustEinsum([]string{"i", "j"},
		tensor.Operand{T: a, Labels: []string{"i", "k"}},
		tensor.Operand{T: b, Labels: []string{"k", "j"}})
	if d := tensor.MaxAbsDiff(tensor.FromData(got, 18, 15), want); d > 1e-9 {
		t.Fatalf("MatMul differs from reference by %g", d)
	}
}

func TestContractMultiOperand(t *testing.T) {
	be := disk.NewSim(machine.Small(4<<10).Disk, true)
	defer be.Close()
	a := stage(t, be, "A", 8, 10)
	c1 := stage(t, be, "C1", 6, 8)
	c2 := stage(t, be, "C2", 7, 10)

	res, err := Contract(be, "B[m,n] = C1[m,i] * C2[n,j] * A[i,j]", smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	got, err := be.DumpArray("B")
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MustEinsum([]string{"m", "n"},
		tensor.Operand{T: c1, Labels: []string{"m", "i"}},
		tensor.Operand{T: c2, Labels: []string{"n", "j"}},
		tensor.Operand{T: a, Labels: []string{"i", "j"}})
	if d := tensor.MaxAbsDiff(tensor.FromData(got, 6, 7), want); d > 1e-9 {
		t.Fatalf("Contract differs from reference by %g", d)
	}
	// The synthesis artifact is exposed for inspection.
	if res.Synthesis.Predicted() <= 0 {
		t.Fatal("missing synthesis artifact")
	}
}

func TestContractParallelWorkersSameResult(t *testing.T) {
	mk := func(workers int) []float64 {
		be := disk.NewSim(machine.Small(4<<10).Disk, true)
		defer be.Close()
		stage(t, be, "A", 12, 9)
		stage(t, be, "B", 9, 11)
		opt := smallOpt()
		opt.Workers = workers
		if _, err := MatMul(be, "C", "A", "B", opt); err != nil {
			t.Fatal(err)
		}
		out, err := be.DumpArray("C")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := mk(1)
	parallel := mk(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("workers changed results at %d", i)
		}
	}
}

func TestContractPipelineSameResult(t *testing.T) {
	mk := func(pipe bool) ([]float64, *Result) {
		be := disk.NewSim(machine.Small(4<<10).Disk, true)
		defer be.Close()
		stage(t, be, "A", 12, 9)
		stage(t, be, "B", 9, 11)
		opt := smallOpt()
		opt.Pipeline = pipe
		res, err := MatMul(be, "C", "A", "B", opt)
		if err != nil {
			t.Fatal(err)
		}
		out, err := be.DumpArray("C")
		if err != nil {
			t.Fatal(err)
		}
		return out, res
	}
	serial, sres := mk(false)
	piped, pres := mk(true)
	for i := range serial {
		if serial[i] != piped[i] {
			t.Fatalf("pipeline changed results at %d: %v != %v", i, piped[i], serial[i])
		}
	}
	if sres.Pipeline != nil {
		t.Fatal("serial run must not report PipelineStats")
	}
	if pres.Pipeline == nil {
		t.Fatal("pipelined run must report PipelineStats")
	}
	if pres.Pipeline.OverlappedSeconds > pres.Pipeline.SerialSeconds+1e-12 {
		t.Fatalf("overlapped %v exceeds serial %v", pres.Pipeline.OverlappedSeconds, pres.Pipeline.SerialSeconds)
	}
}

func TestContractUnfusedOption(t *testing.T) {
	be := disk.NewSim(machine.Small(4<<10).Disk, true)
	defer be.Close()
	stage(t, be, "A", 8, 8)
	stage(t, be, "B", 8, 8)
	opt := smallOpt()
	opt.KeepUnfused = true
	if _, err := MatMul(be, "C", "A", "B", opt); err != nil {
		t.Fatal(err)
	}
	if _, err := be.DumpArray("C"); err != nil {
		t.Fatal(err)
	}
}

func TestContractErrors(t *testing.T) {
	be := disk.NewSim(machine.Small(4<<10).Disk, true)
	defer be.Close()
	stage(t, be, "A", 4, 4)

	// Missing operand.
	if _, err := Contract(be, "C[i,j] = A[i,k] * Bmissing[k,j]", smallOpt()); err == nil {
		t.Error("missing operand must fail")
	}
	// Rank mismatch.
	if _, err := Contract(be, "C[i] = A[i]", smallOpt()); err == nil {
		t.Error("rank mismatch must fail")
	}
	// Conflicting extents.
	stage(t, be, "B", 5, 4)
	if _, err := Contract(be, "C[i,j] = A[i,k] * B[k,j]", smallOpt()); err == nil {
		t.Error("conflicting extents must fail")
	}
	// Malformed spec.
	if _, err := Contract(be, "nonsense", smallOpt()); err == nil {
		t.Error("malformed spec must fail")
	}
	// Output index unbound.
	if _, err := Contract(be, "C[z,w] = A[i,k]", smallOpt()); err == nil {
		t.Error("unbound output index must fail")
	}
}

func TestContractOnFileStore(t *testing.T) {
	fs, err := disk.NewFileStore(t.TempDir(), machine.Small(4<<10).Disk)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	// Stage via sections.
	a, err := fs.Create("A", []int64{10, 12})
	if err != nil {
		t.Fatal(err)
	}
	at := tensor.New(10, 12)
	for i := range at.Data() {
		at.Data()[i] = float64(i%17) - 8
	}
	if err := a.WriteSection([]int64{0, 0}, []int64{10, 12}, at.Data()); err != nil {
		t.Fatal(err)
	}
	b, err := fs.Create("B", []int64{12, 7})
	if err != nil {
		t.Fatal(err)
	}
	bt := tensor.New(12, 7)
	for i := range bt.Data() {
		bt.Data()[i] = float64(i%11) - 5
	}
	if err := b.WriteSection([]int64{0, 0}, []int64{12, 7}, bt.Data()); err != nil {
		t.Fatal(err)
	}

	if _, err := MatMul(fs, "C", "A", "B", smallOpt()); err != nil {
		t.Fatal(err)
	}
	cArr, err := fs.Open("C")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 10*7)
	if err := cArr.ReadSection([]int64{0, 0}, []int64{10, 7}, got); err != nil {
		t.Fatal(err)
	}
	want := tensor.MustEinsum([]string{"i", "j"},
		tensor.Operand{T: at, Labels: []string{"i", "k"}},
		tensor.Operand{T: bt, Labels: []string{"k", "j"}})
	if d := tensor.MaxAbsDiff(tensor.FromData(got, 10, 7), want); d > 1e-9 {
		t.Fatalf("file-store MatMul differs by %g", d)
	}
}

func TestParseStructure(t *testing.T) {
	c, err := expr.ParseStructure("X[i,j] = A[i,k] * B[k,j]")
	if err != nil {
		t.Fatal(err)
	}
	if c.Out.Name != "X" || len(c.Operands) != 2 || c.Ranges != nil {
		t.Fatalf("bad structure: %+v", c)
	}
	if _, err := expr.ParseStructure("garbage"); err == nil {
		t.Fatal("garbage must fail")
	}
}

// TestContractWithFaultsAndRecovery drives the facade's resilience
// options: a seeded fault schedule on the backend, retries absorbing the
// transient portion, and (with Options.Recovery) restarts absorbing a
// persistent window — all invisible in the contraction's result.
func TestContractWithFaultsAndRecovery(t *testing.T) {
	run := func(cfg fault.Config, rec *exec.RecoveryOptions) ([]float64, *Result) {
		be := disk.NewSim(machine.Small(4<<10).Disk, true)
		defer be.Close()
		stage(t, be, "A", 36, 30)
		stage(t, be, "B", 30, 33)
		opt := smallOpt()
		// The engine issues operations in program order, so MaxConsecutive
		// caps the faults one op's retries can draw; the no-recovery leg
		// must absorb its schedule deterministically.
		opt.Pipeline = true
		opt.Retry = disk.DefaultRetryPolicy()
		opt.Recovery = rec
		inj := fault.Wrap(be, cfg)
		res, err := Contract(inj, "C[i,j] = A[i,k] * B[k,j]", opt)
		if err != nil {
			t.Fatalf("contract under %s: %v", cfg, err)
		}
		out, err := be.DumpArray("C")
		if err != nil {
			t.Fatal(err)
		}
		return out, res
	}

	clean, _ := run(fault.Config{}, nil)
	faulty, res := run(fault.Config{Seed: 5, Rate: 0.15, TornRate: 0.1}, nil)
	if res.Retry.Retries == 0 {
		t.Fatal("fault schedule produced no retries")
	}
	for i := range clean {
		if clean[i] != faulty[i] {
			t.Fatalf("faulted contraction diverges at %d", i)
		}
	}

	recovered, rres := run(fault.Config{Seed: 5, Rate: 0.05, PersistentAfter: 20, PersistentOps: 1},
		&exec.RecoveryOptions{MaxRestarts: 4})
	if rres.Recovery == nil || rres.Recovery.Restarts == 0 {
		t.Fatalf("persistent window did not force a restart: %+v", rres.Recovery)
	}
	for i := range clean {
		if clean[i] != recovered[i] {
			t.Fatalf("recovered contraction diverges at %d", i)
		}
	}
}

// ringStage creates an array on the ring with deterministic contents.
func ringStage(t *testing.T, be disk.Backend, name string, dims ...int) *tensor.Tensor {
	t.Helper()
	d64 := make([]int64, len(dims))
	for i, d := range dims {
		d64[i] = int64(d)
	}
	a, err := be.Create(name, d64)
	if err != nil {
		t.Fatal(err)
	}
	tt := tensor.New(dims...)
	for i := range tt.Data() {
		tt.Data()[i] = float64((i*2654435761)%1000)/500.0 - 1
	}
	if err := a.WriteSection(make([]int64, len(dims)), d64, tt.Data()); err != nil {
		t.Fatal(err)
	}
	return tt
}

// TestContractRingScrubRepair runs a contraction on the replicated data
// plane while silent bit rot corrupts one shard's stored copies: reads
// must fail over to the healthy replica (correct output), and the
// ScrubRepair post-pass must heal the rotten copies from their peers
// rather than blessing the corruption.
func TestContractRingScrubRepair(t *testing.T) {
	cfg := machine.Small(4 << 10)
	rot := fault.Config{Seed: 11, BitFlipRate: 1, Shard: 1} // every shard-0 read rots a stored bit
	st, err := ring.New(ring.Options{
		Shards: 3, Replicas: 2,
		Disk: cfg.Disk, WithData: true, Faults: &rot,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := ringStage(t, st, "A", 12, 9)
	b := ringStage(t, st, "B", 9, 11)

	opt := smallOpt()
	opt.ScrubRepair = true
	res, err := Contract(st, "C[i,j] = A[i,k] * B[k,j]", opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scrub == nil {
		t.Fatal("ScrubRepair did not attach a scrub report")
	}
	if res.Scrub.HealedFromReplica == 0 {
		t.Fatalf("no copies healed from replica: %s", res.Scrub)
	}

	// The healed ring verifies clean. (Checked before the output read
	// below: at rate 1 every further front-door read that lands on
	// shard 0 rots another stored bit.)
	final, err := disk.Scrub(st, disk.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !final.OK() {
		t.Fatalf("post-repair scrub still finds defects: %s", final)
	}

	// Failover masked the rot: the output matches the reference.
	ra, err := st.Open("C")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 12*11)
	if err := ra.ReadSection([]int64{0, 0}, []int64{12, 11}, got); err != nil {
		t.Fatal(err)
	}
	want := tensor.MustEinsum([]string{"i", "j"},
		tensor.Operand{T: a, Labels: []string{"i", "k"}},
		tensor.Operand{T: b, Labels: []string{"k", "j"}})
	if d := tensor.MaxAbsDiff(tensor.FromData(got, 12, 11), want); d > 1e-9 {
		t.Fatalf("ring contraction differs from reference by %g", d)
	}
}

// TestContractScrubSchedule replaces the post-run sweep with the
// background scheduler: one full verification pass spread across unit
// barriers, reported like a scrub. Every array on the backend —
// operands, intermediates, output — must be covered exactly once and
// verify clean, with the barrier ticks proving the slices ran mid-run.
func TestContractScrubSchedule(t *testing.T) {
	be := disk.NewSim(machine.Small(4<<10).Disk, true)
	defer be.Close()
	stage(t, be, "A", 12, 9)
	stage(t, be, "B", 9, 11)

	reg := obs.NewRegistry()
	opt := smallOpt()
	opt.ScrubSchedule = 1
	opt.Metrics = reg
	res, err := Contract(be, "C[i,j] = A[i,k] * B[k,j]", opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scrub == nil {
		t.Fatal("scheduled scrub did not attach a report")
	}
	if !res.Scrub.OK() {
		t.Fatalf("scheduled scrub found defects on a clean run: %s", res.Scrub)
	}
	if want := len(be.ArrayNames()); res.Scrub.Arrays != want {
		t.Fatalf("scheduled pass covered %d arrays, want all %d", res.Scrub.Arrays, want)
	}
	snap := reg.Snapshot()
	if snap.Counters[health.MetricSchedTicks] == 0 {
		t.Fatal("no unit-barrier ticks reached the scheduler")
	}
	if snap.Counters[health.MetricSchedArrays] != int64(res.Scrub.Arrays) {
		t.Fatalf("scrub.sched.arrays = %d, report says %d",
			snap.Counters[health.MetricSchedArrays], res.Scrub.Arrays)
	}
}

// TestContractScrubScheduleRequiresIntegrity pins the error contract:
// scheduling a scrub over a backend with no integrity metadata fails
// up front instead of silently skipping the pass.
func TestContractScrubScheduleRequiresIntegrity(t *testing.T) {
	be := disk.NewSim(machine.Small(4<<10).Disk, true)
	defer be.Close()
	stage(t, be, "A", 6, 6)
	stage(t, be, "B", 6, 6)
	opt := smallOpt()
	opt.ScrubSchedule = 2
	if _, err := Contract(noIntegrity{be}, "C[i,j] = A[i,k] * B[k,j]", opt); err == nil {
		t.Fatal("scheduled scrub accepted a backend without integrity metadata")
	}
}

// noIntegrity hides the Sim's integrity surface while keeping it a
// Backend.
type noIntegrity struct{ be *disk.Sim }

func (n noIntegrity) Create(name string, dims []int64) (disk.Array, error) {
	return n.be.Create(name, dims)
}
func (n noIntegrity) Open(name string) (disk.Array, error) { return n.be.Open(name) }
func (n noIntegrity) Stats() disk.Stats                    { return n.be.Stats() }
func (n noIntegrity) ResetStats()                          { n.be.ResetStats() }
func (n noIntegrity) Close() error                         { return nil }
