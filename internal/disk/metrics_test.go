package disk

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
)

// TestMetricsMirrorStats drives both backends with a registry attached
// and asserts the counters equal the Stats struct, totals and per-array.
func TestMetricsMirrorStats(t *testing.T) {
	d := machine.Small(1 << 20).Disk
	fileBE, err := NewFileStore(t.TempDir(), d)
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]Backend{
		"sim":  NewSim(d, true),
		"file": fileBE,
	}
	for name, be := range backends {
		t.Run(name, func(t *testing.T) {
			defer be.Close()
			reg := obs.NewRegistry()
			if !AttachMetrics(be, reg) {
				t.Fatal("backend does not support metrics")
			}
			a, err := be.Create("A", []int64{4, 6})
			if err != nil {
				t.Fatal(err)
			}
			b, err := be.Create("B", []int64{8})
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]float64, 24)
			if err := a.WriteSection([]int64{0, 0}, []int64{4, 6}, buf); err != nil {
				t.Fatal(err)
			}
			if err := a.ReadSection([]int64{0, 0}, []int64{2, 6}, buf[:12]); err != nil {
				t.Fatal(err)
			}
			if err := b.ReadSection([]int64{0}, []int64{8}, buf[:8]); err != nil {
				t.Fatal(err)
			}

			st := be.Stats()
			snap := reg.Snapshot()
			if got := snap.Counters[MetricReadBytes]; got != st.BytesRead {
				t.Errorf("read bytes metric = %d, stats = %d", got, st.BytesRead)
			}
			if got := snap.Counters[MetricWriteBytes]; got != st.BytesWritten {
				t.Errorf("write bytes metric = %d, stats = %d", got, st.BytesWritten)
			}
			if got := snap.Counters[MetricReadOps]; got != st.ReadOps {
				t.Errorf("read ops metric = %d, stats = %d", got, st.ReadOps)
			}
			if got := snap.Counters[MetricWriteOps]; got != st.WriteOps {
				t.Errorf("write ops metric = %d, stats = %d", got, st.WriteOps)
			}
			if got := snap.Counters[MetricReadBytes+"/A"]; got != 12*8 {
				t.Errorf("per-array read bytes for A = %d, want %d", got, 12*8)
			}
			if got := snap.Counters[MetricReadBytes+"/B"]; got != 8*8 {
				t.Errorf("per-array read bytes for B = %d, want %d", got, 8*8)
			}

			// ResetStats must zero this backend's instruments but leave
			// other producers in the shared registry alone.
			other := reg.Counter("dcs.evals")
			other.Add(7)
			be.ResetStats()
			snap = reg.Snapshot()
			if got := snap.Counters[MetricReadBytes]; got != 0 {
				t.Errorf("read bytes after reset = %d, want 0", got)
			}
			if got := snap.Counters[MetricReadBytes+"/A"]; got != 0 {
				t.Errorf("per-array read bytes after reset = %d, want 0", got)
			}
			if got := snap.Counters["dcs.evals"]; got != 7 {
				t.Errorf("foreign counter clobbered by backend reset: %d", got)
			}

			// Charges after a reset keep mirroring.
			if err := b.ReadSection([]int64{0}, []int64{4}, buf[:4]); err != nil {
				t.Fatal(err)
			}
			if got := reg.Counter(MetricReadBytes).Value(); got != 4*8 {
				t.Errorf("read bytes after reset+read = %d, want %d", got, 4*8)
			}
			if got, want := reg.Counter(MetricReadBytes).Value(), be.Stats().BytesRead; got != want {
				t.Errorf("metric %d != stats %d after reset", got, want)
			}
		})
	}
}

// TestLedgerChargeAllocs pins the metrics mirror's hot path: with a
// registry attached, a charge after an array's first one in each
// direction reuses its cached counters and allocates nothing.
func TestLedgerChargeAllocs(t *testing.T) {
	l := NewLedger(machine.Small(1 << 20).Disk)
	reg := obs.NewRegistry()
	l.SetMetrics(reg)
	for _, name := range []string{"A", "B"} {
		l.Charge(name, false, 8, 1)
		l.Charge(name, true, 8, 1)
	}
	if n := testing.AllocsPerRun(100, func() {
		l.Charge("A", false, 64, 1)
		l.Charge("B", true, 64, 1)
	}); n != 0 {
		t.Fatalf("%v allocations per read+write charge, want 0", n)
	}
	if got := reg.Counter(MetricReadOps + "/A").Value(); got != 101+1 {
		t.Fatalf("per-array read ops %d, want %d", got, 102)
	}
	if got := reg.Counter(MetricWriteBytes).Value(); got != 2*8+101*64 {
		t.Fatalf("write bytes %d, want %d", got, 2*8+101*64)
	}
}
