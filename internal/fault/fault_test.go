package fault

import (
	"errors"
	"math"
	"testing"

	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/obs"
)

func testDisk() machine.Disk {
	return machine.Disk{SeekTime: 0.01, ReadBandwidth: 1000, WriteBandwidth: 500}
}

// drive runs a fixed op sequence against a fresh injector and returns
// the per-op outcomes (nil or error).
func drive(t *testing.T, cfg Config, ops int) []error {
	t.Helper()
	in := Wrap(disk.NewSim(testDisk(), true), cfg)
	a, err := in.Create("A", []int64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 16)
	var errs []error
	for i := 0; i < ops; i++ {
		if i%2 == 0 {
			errs = append(errs, a.ReadSection([]int64{0, 0}, []int64{4, 4}, buf))
		} else {
			errs = append(errs, a.WriteSection([]int64{4, 4}, []int64{4, 4}, buf))
		}
	}
	return errs
}

func TestScheduleIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Rate: 0.3, TornRate: 0.1}
	a := drive(t, cfg, 200)
	b := drive(t, cfg, 200)
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			t.Fatalf("op %d differs across identical runs", i)
		}
		if a[i] != nil && a[i].Error() != b[i].Error() {
			t.Fatalf("op %d error differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := drive(t, Config{Seed: 12, Rate: 0.3, TornRate: 0.1}, 200)
	same := true
	for i := range a {
		if (a[i] == nil) != (c[i] == nil) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the identical schedule")
	}
}

func TestMaxConsecutiveBoundsStreaks(t *testing.T) {
	errs := drive(t, Config{Seed: 3, Rate: 1.0, MaxConsecutive: 2}, 300)
	streak, worst, faults := 0, 0, 0
	for _, err := range errs {
		if err != nil {
			faults++
			streak++
			if streak > worst {
				worst = streak
			}
		} else {
			streak = 0
		}
	}
	if worst > 2 {
		t.Fatalf("streak of %d exceeds MaxConsecutive=2", worst)
	}
	if faults == 0 {
		t.Fatal("rate=1 injected nothing")
	}
}

func TestTransientReadPerformsThenFails(t *testing.T) {
	sim := disk.NewSim(testDisk(), true)
	in := Wrap(sim, Config{Seed: 1, Rate: 1.0, MaxConsecutive: 1})
	a, err := in.Create("A", []int64{4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.LoadArray("A", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 4)
	rerr := a.ReadSection([]int64{0}, []int64{4}, buf)
	if !disk.IsTransient(rerr) || !errors.Is(rerr, ErrInjected) {
		t.Fatalf("want transient injected error, got %v", rerr)
	}
	if !math.IsNaN(buf[0]) {
		t.Fatal("faulted read should poison the buffer")
	}
	if buf[1] != 2 {
		t.Fatal("perform-then-fail should still have transferred data")
	}
	if st := in.Stats(); st.ReadOps != 1 {
		t.Fatalf("faulted read not charged to backend stats: %+v", st)
	}
	// The streak cap guarantees the retry succeeds.
	if err := a.ReadSection([]int64{0}, []int64{4}, buf); err != nil {
		t.Fatalf("retry after streak cap should succeed: %v", err)
	}
	if buf[0] != 1 {
		t.Fatal("retried read returned wrong data")
	}
}

func TestTornWriteLeavesPrefixOnly(t *testing.T) {
	sim := disk.NewSim(testDisk(), true)
	in := Wrap(sim, Config{Seed: 5, TornRate: 1.0, MaxConsecutive: 1})
	a, err := in.Create("A", []int64{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	werr := a.WriteSection([]int64{0, 0}, []int64{4, 2}, buf)
	if !disk.IsTransient(werr) || !errors.Is(werr, ErrTorn) {
		t.Fatalf("want transient torn-write error, got %v", werr)
	}
	got, err := sim.DumpArray("A")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 0, 0, 0, 0} // 2 of 4 rows landed
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after torn write array = %v, want %v", got, want)
		}
	}
	// Retrying the full write (ordinal past the streak) repairs it.
	if err := a.WriteSection([]int64{0, 0}, []int64{4, 2}, buf); err != nil {
		t.Fatalf("retry: %v", err)
	}
	got, _ = sim.DumpArray("A")
	for i, w := range buf {
		if got[i] != w {
			t.Fatalf("retried write did not repair: %v", got)
		}
	}
	if c := in.Counts(); c.Torn != 1 {
		t.Fatalf("torn count = %d, want 1", c.Torn)
	}
}

func TestPersistentWindowSkipsBackend(t *testing.T) {
	sim := disk.NewSim(testDisk(), true)
	in := Wrap(sim, Config{Seed: 2, PersistentAfter: 2, PersistentOps: 2})
	a, err := in.Create("A", []int64{4})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 4)
	for i := 0; i < 6; i++ {
		err := a.WriteSection([]int64{0}, []int64{4}, buf)
		inWindow := i >= 2 && i < 4
		if inWindow {
			if err == nil || disk.IsTransient(err) || !errors.Is(err, ErrPersistent) {
				t.Fatalf("op %d: want persistent injected error, got %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("op %d: unexpected error %v", i, err)
		}
	}
	if st := in.Stats(); st.WriteOps != 4 {
		t.Fatalf("persistent faults should not reach the backend: %+v", st)
	}
	if c := in.Counts(); c.Persistent != 2 || c.Ops != 6 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestMetricsMirrorCounts(t *testing.T) {
	reg := obs.NewRegistry()
	sim := disk.NewSim(testDisk(), false)
	in := Wrap(sim, Config{Seed: 9, Rate: 0.5, TornRate: 0.2, LatencyRate: 0.3, LatencySeconds: 0.05})
	in.SetMetrics(reg)
	a, err := in.Create("A", []int64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		a.ReadSection([]int64{0, 0}, []int64{4, 4}, nil)
		a.WriteSection([]int64{0, 0}, []int64{4, 4}, nil)
	}
	c := in.Counts()
	if c.Faults() == 0 || c.LatencySpikes == 0 {
		t.Fatalf("schedule injected nothing: %+v", c)
	}
	snap := reg.Snapshot()
	if snap.Counters["fault.injected"] != c.Faults() {
		t.Fatalf("fault.injected = %d, want %d", snap.Counters["fault.injected"], c.Faults())
	}
	if snap.Counters["fault.injected.transient"] != c.Transient ||
		snap.Counters["fault.injected.torn"] != c.Torn ||
		snap.Counters["fault.latency.spikes"] != c.LatencySpikes {
		t.Fatalf("metric mirror mismatch: %+v vs %v", c, snap.Counters)
	}
	// Registry forwarding reaches the inner backend too.
	if snap.Counters["disk.read.ops"] == 0 {
		t.Fatal("SetMetrics did not forward to the inner backend")
	}
}
