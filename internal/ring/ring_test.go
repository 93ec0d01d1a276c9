package ring

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/leaktest"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

func testDisk() machine.Disk {
	return machine.Disk{SeekTime: 0.005, ReadBandwidth: 1e6, WriteBandwidth: 8e5}
}

// newTestStore builds a data-mode ring over simulator shards.
func newTestStore(t *testing.T, shards, replicas int, opt Options) *Store {
	t.Helper()
	opt.Shards = shards
	opt.Replicas = replicas
	opt.Disk = testDisk()
	opt.WithData = true
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// baseArray opens shard id's local copy beneath any injector.
func baseArray(t *testing.T, s *Store, id int, name string) disk.Array {
	t.Helper()
	base, _ := disk.Find[*disk.Sim](s.ShardBackend(id))
	arr, err := base.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestNewValidates(t *testing.T) {
	for _, opt := range []Options{
		{Shards: 0, Replicas: 1},
		{Shards: 3, Replicas: 0},
		{Shards: 3, Replicas: 4},
	} {
		if _, err := New(opt); err == nil {
			t.Fatalf("options %+v must be rejected", opt)
		}
	}
}

func TestRoundTripAcrossBlocks(t *testing.T) {
	t.Run("blocked/sections", func(t *testing.T) {
		s := newTestStore(t, 4, 2, Options{})
		a, err := s.Create("X", []int64{20, 5})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float64, 100)
		for i := range buf {
			buf[i] = float64(i) + 0.5
		}
		if err := a.WriteSection([]int64{0, 0}, []int64{20, 5}, buf); err != nil {
			t.Fatal(err)
		}
		// Sections crossing placement-block boundaries with offsets in
		// both dimensions must come back exactly.
		got := make([]float64, 7*3)
		if err := a.ReadSection([]int64{2, 1}, []int64{7, 3}, got); err != nil {
			t.Fatal(err)
		}
		for r := int64(0); r < 7; r++ {
			for c := int64(0); c < 3; c++ {
				want := float64((2+r)*5+(1+c)) + 0.5
				if got[r*3+c] != want {
					t.Fatalf("element (%d,%d) = %v, want %v", r, c, got[r*3+c], want)
				}
			}
		}
		// Range k = rows [5k, 5k+5) on shards k and k+1 mod 4.
		ra := a.(*Array)
		for b := int64(0); b < ra.blocks; b++ {
			cands := ra.candidates(b)
			if lo, hi := ra.blockRange(b); lo != 5*b || hi != 5*b+5 || !slices.Equal(cands, []int{int(b), int(b+1) % 4}) {
				t.Fatalf("block %d = rows [%d,%d) on %v", b, lo, hi, cands)
			}
		}
		// Out-of-bounds sections are typed errors.
		if err := a.ReadSection([]int64{18, 0}, []int64{5, 5}, got); err == nil {
			t.Fatal("out-of-bounds read must fail")
		}
	})
	t.Run("blocked/catalog", func(t *testing.T) {
		s := newTestStore(t, 3, 1, Options{})
		if s.Live() != 3 {
			t.Fatalf("Live = %d, want 3", s.Live())
		}
		a, err := s.Create("X", []int64{9, 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Create("X", nil); err == nil {
			t.Fatal("duplicate create must fail")
		}
		if _, err := s.Open("missing"); err == nil {
			t.Fatal("opening a missing array must fail")
		}
		if d := a.Dims(); len(d) != 2 || d[0] != 9 || d[1] != 4 {
			t.Fatalf("Dims = %v", d)
		}
		if b, err := s.Open("X"); err != nil || b.Dims()[0] != 9 {
			t.Fatalf("Open(X) = %v, %v", b, err)
		}
	})
}

// TestBlockedSplit pins Blocked to GA/DRA's floor split: shard k owns rows
// [d·k/P, d·(k+1)/P), a section costs each shard it touches exactly one
// sub-operation, shards owning nothing idle, and the parallel time is the
// slowest shard's.
func TestBlockedSplit(t *testing.T) {
	for _, tc := range []struct {
		name        string
		shards      int
		rows        int64
		lo, n       int64   // the section read back, rows [lo, lo+n)
		wantRows    []int64 // rows each shard serves for that read
		wantTimeSec float64 // 0: not checked
	}{
		// Uneven split: boundaries 0,2,5,7,10.
		{name: "uneven", shards: 4, rows: 10, lo: 0, n: 10, wantRows: []int64{2, 3, 2, 3}},
		// P=7 does not divide 10 rows: boundaries 0,1,2,4,5,7,8,10.
		{name: "uneven_p7", shards: 7, rows: 10, lo: 0, n: 10, wantRows: []int64{1, 1, 2, 1, 2, 1, 2}},
		// More shards than rows: boundaries 0,0,1,1,2,3 leave 0 and 2 idle.
		{name: "more_shards_than_rows", shards: 5, rows: 3, lo: 0, n: 3, wantRows: []int64{0, 1, 0, 1, 1}},
		// A full read spreads evenly; Time is one seek plus a quarter of
		// the transfer.
		{name: "full_read_spreads_load", shards: 4, rows: 100, lo: 0, n: 100, wantRows: []int64{25, 25, 25, 25},
			wantTimeSec: 0.005 + float64(25*3*8)/1e6},
		// A section inside one shard's range uses that disk only.
		{name: "single_owner", shards: 2, rows: 100, lo: 0, n: 10, wantRows: []int64{10, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStore(t, tc.shards, 1, Options{})
			a, err := s.Create("X", []int64{tc.rows, 3})
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]float64, tc.rows*3)
			for i := range buf {
				buf[i] = float64(i) * 1.5
			}
			if err := a.WriteSection([]int64{0, 0}, []int64{tc.rows, 3}, buf); err != nil {
				t.Fatal(err)
			}
			// A shard owning no rows is never written to.
			for k := 0; k < tc.shards; k++ {
				lo, hi := tc.rows*int64(k)/int64(tc.shards), tc.rows*int64(k+1)/int64(tc.shards)
				if st := s.ShardStats(k); lo == hi && st.WriteOps != 0 {
					t.Fatalf("shard %d owns no rows but wrote %+v", k, st)
				}
			}
			s.ResetStats()
			got := make([]float64, tc.n*3)
			if err := a.ReadSection([]int64{tc.lo, 0}, []int64{tc.n, 3}, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != buf[tc.lo*3+int64(i)] {
					t.Fatalf("element %d = %v, want %v", i, got[i], buf[tc.lo*3+int64(i)])
				}
			}
			busy := int64(0)
			for k, rows := range tc.wantRows {
				st := s.ShardStats(k)
				wantOps := int64(0)
				if rows > 0 {
					wantOps = 1
					busy++
				}
				if st.BytesRead != rows*3*8 || st.ReadOps != wantOps {
					t.Fatalf("shard %d read %d bytes in %d ops, want %d in %d",
						k, st.BytesRead, st.ReadOps, rows*3*8, wantOps)
				}
			}
			if agg := s.AggregateStats(); agg.BytesRead != tc.n*3*8 || agg.ReadOps != busy {
				t.Fatalf("aggregate %+v, want %d bytes in %d ops", agg, tc.n*3*8, busy)
			}
			if tc.wantTimeSec != 0 && s.Time() != tc.wantTimeSec {
				t.Fatalf("Time = %g, want %g", s.Time(), tc.wantTimeSec)
			}
		})
	}
}

func TestScalarArray(t *testing.T) {
	t.Run("blocked", func(t *testing.T) {
		s := newTestStore(t, 3, 2, Options{})
		a, err := s.Create("s", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.WriteSection(nil, nil, []float64{2.25}); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, 1)
		if err := a.ReadSection(nil, nil, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != 2.25 {
			t.Fatalf("scalar round trip = %v", got[0])
		}
		// A rank-0 array lives on the first live shards, as GA puts it on
		// process 0; the rest idle.
		if cands := a.(*Array).candidates(0); !slices.Equal(cands, []int{0, 1}) {
			t.Fatalf("scalar placed on %v, want [0 1]", cands)
		}
		if st := s.ShardStats(2); st.ReadOps != 0 || st.WriteOps != 0 {
			t.Fatalf("shard 2 should idle on scalar ops: %+v", st)
		}
	})
}

func TestConcurrentSectionReads(t *testing.T) {
	// Overlapping section reads race across the same shards; under -race
	// this pins down that the fan-out and the shard stores tolerate
	// concurrent collectives. Six shards give 2-row blocks, so every read
	// spans several.
	s := newTestStore(t, 6, 1, Options{})
	a, _ := s.Create("X", []int64{12, 4})
	buf := make([]float64, 48)
	for i := range buf {
		buf[i] = float64(i)
	}
	if err := a.WriteSection([]int64{0, 0}, []int64{12, 4}, buf); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := int64(g % 5)
			got := make([]float64, 7*4)
			if err := a.ReadSection([]int64{lo, 0}, []int64{7, 4}, got); err != nil {
				errs[g] = err
				return
			}
			for i, v := range got {
				if want := float64(int(lo)*4 + i); v != want {
					errs[g] = fmt.Errorf("goroutine %d: element %d = %v, want %v", g, i, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// failClose is a shard backend whose Close always fails.
type failClose struct {
	disk.Backend
	id int
}

func (f failClose) Close() error { return fmt.Errorf("disk %d stuck", f.id) }

func TestCloseAggregatesShardErrors(t *testing.T) {
	// Every shard is closed even when earlier ones fail, and the joined
	// error names each failure, not just the first.
	s, err := New(Options{Shards: 3, Replicas: 1, Disk: testDisk(), WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		s.shards[i].be = failClose{Backend: s.shards[i].be, id: i}
	}
	err = s.Close()
	if err == nil {
		t.Fatal("Close must report the stuck disks")
	}
	for _, want := range []string{"ring: close shard 0: disk 0 stuck", "ring: close shard 2: disk 2 stuck"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error %q missing %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("joined error %q blames the healthy shard", err)
	}
}

func TestFrontDoorSingleDiskEquivalent(t *testing.T) {
	// The front door charges exactly one single-disk-equivalent op per
	// section call — regardless of replication factor or how many shard
	// sub-operations served it — while the aggregate accounting carries
	// the replicated cost. Eight shards give 2-row blocks.
	s := newTestStore(t, 8, 3, Options{})
	a, _ := s.Create("X", []int64{16, 4})
	buf := make([]float64, 64)
	if err := a.WriteSection([]int64{0, 0}, []int64{16, 4}, buf); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadSection([]int64{0, 0}, []int64{16, 4}, buf); err != nil {
		t.Fatal(err)
	}
	front := s.Stats()
	d := testDisk()
	if front.WriteOps != 1 || front.ReadOps != 1 {
		t.Fatalf("front door ops %+v, want exactly one read and one write", front)
	}
	if front.BytesWritten != 64*8 || front.BytesRead != 64*8 {
		t.Fatalf("front door bytes %+v", front)
	}
	if front.WriteTime != d.WriteTime(64*8, 1) || front.ReadTime != d.ReadTime(64*8, 1) {
		t.Fatalf("front door time %+v is not the single-disk figure", front)
	}
	// R=3 writes fan out threefold.
	agg := s.AggregateStats()
	if agg.BytesWritten != 3*64*8 {
		t.Fatalf("aggregate wrote %d bytes, want %d", agg.BytesWritten, 3*64*8)
	}
	s.ResetStats()
	if st := s.Stats(); st.ReadOps != 0 || st.BytesWritten != 0 {
		t.Fatalf("ResetStats left front door %+v", st)
	}
	if st := s.AggregateStats(); st.ReadOps != 0 || st.WriteOps != 0 {
		t.Fatalf("ResetStats left shards %+v", st)
	}
}

func TestReadFailoverMasksIntegrity(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestStore(t, 3, 2, Options{Metrics: reg})
	a, _ := s.Create("X", []int64{12, 2})
	buf := make([]float64, 24)
	for i := range buf {
		buf[i] = float64(i) + 1
	}
	if err := a.WriteSection([]int64{0, 0}, []int64{12, 2}, buf); err != nil {
		t.Fatal(err)
	}
	// Rot block 0's preferred replica beneath its checksums.
	ra := a.(*Array)
	pref := ra.candidates(0)[0]
	barr := baseArray(t, s, pref, "X")
	if err := barr.(disk.BitFlipper).FlipBit(0, 3); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 24)
	if err := a.ReadSection([]int64{0, 0}, []int64{12, 2}, got); err != nil {
		t.Fatalf("read must fail over, got %v", err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("element %d = %v, want %v (failover served wrong data)", i, got[i], buf[i])
		}
	}
	if n := reg.CounterVec(MetricFailover, "shard").With(s.shards[pref].name).Value(); n == 0 {
		t.Fatal("failover counter for the rotten shard is zero")
	}

	// HealArray copies the block back from the healthy replica.
	copied, unhealed, err := s.HealArray("X")
	if err != nil {
		t.Fatal(err)
	}
	if copied == 0 || unhealed != 0 {
		t.Fatalf("HealArray copied=%d unhealed=%d, want copied>0 unhealed=0", copied, unhealed)
	}
	if n := reg.Counter(MetricRepairCopied).Value(); n != copied {
		t.Fatalf("repair.copied counter %d != copied %d", n, copied)
	}
	defects, _, err := s.VerifyArray("X")
	if err != nil {
		t.Fatal(err)
	}
	if len(defects) != 0 {
		t.Fatalf("defects remain after heal: %v", defects)
	}
	// The previously rotten base copy now holds the true data again.
	head := make([]float64, 8)
	if err := barr.ReadSection([]int64{0, 0}, []int64{4, 2}, head); err != nil {
		t.Fatalf("healed copy still fails verification: %v", err)
	}
	for i := range head {
		if head[i] != buf[i] {
			t.Fatalf("healed element %d = %v, want %v", i, head[i], buf[i])
		}
	}
}

func TestQuorumUnreachableTypedError(t *testing.T) {
	s := newTestStore(t, 2, 1, Options{})
	a, _ := s.Create("X", []int64{8, 2})
	buf := make([]float64, 16)
	if err := a.WriteSection([]int64{0, 0}, []int64{8, 2}, buf); err != nil {
		t.Fatal(err)
	}
	ra := a.(*Array)
	only := ra.candidates(0)[0]
	if err := baseArray(t, s, only, "X").(disk.BitFlipper).FlipBit(0, 5); err != nil {
		t.Fatal(err)
	}
	err := a.ReadSection([]int64{0, 0}, []int64{4, 2}, buf[:8])
	if err == nil {
		t.Fatal("R=1 read of a rotten block must fail")
	}
	var ioe *disk.IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("error %v is not a *disk.IOError", err)
	}
	var be *BlockError
	if !errors.As(err, &be) {
		t.Fatalf("error %v carries no *BlockError", err)
	}
	if be.Array != "X" || len(be.Shards) != 1 || be.Shards[0] != only {
		t.Fatalf("BlockError attribution wrong: %+v", be)
	}
	// The per-replica integrity cause is visible through Unwrap.
	if !disk.IsIntegrity(err) {
		t.Fatalf("integrity cause not classifiable through %v", err)
	}
	if disk.IsTransient(err) {
		t.Fatal("an integrity fault must not be classified transient")
	}
}

// failWrites wraps a shard's local array so every write fails with a
// persistent typed fault.
type failWrites struct {
	disk.Array
}

func (f failWrites) WriteSection(lo, shape []int64, buf []float64) error {
	return disk.NewIOError("write", f.Array.Name(), lo, shape, false, errors.New("shard down"))
}

func TestDegradedWriteMarksStaleAndRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestStore(t, 4, 2, Options{Metrics: reg})
	a, _ := s.Create("X", []int64{8, 2})
	ra := a.(*Array)
	victim := ra.candidates(0)[0]

	buf := make([]float64, 16)
	for i := range buf {
		buf[i] = float64(i)
	}
	if err := a.WriteSection([]int64{0, 0}, []int64{8, 2}, buf); err != nil {
		t.Fatal(err)
	}

	// Break the victim's local copy: writes degrade instead of failing.
	good := ra.reps[victim].la
	ra.setLocal(s.shards[victim], failWrites{Array: good})

	for i := range buf {
		buf[i] = float64(i) + 100
	}
	if err := a.WriteSection([]int64{0, 0}, []int64{8, 2}, buf); err != nil {
		t.Fatalf("write with one broken replica must degrade, not fail: %v", err)
	}
	staleBlocks := 0
	for b := int64(0); b < ra.blocks; b++ {
		for _, id := range ra.candidates(b) {
			if id == victim && ra.isStale(b, victim) {
				staleBlocks++
			}
		}
	}
	if staleBlocks == 0 {
		t.Fatal("degraded write left no stale flags on the broken replica")
	}
	if g := reg.Gauge(MetricDegradedBlocks).Value(); g != float64(staleBlocks) {
		t.Fatalf("degraded gauge %g, want %d", g, staleBlocks)
	}
	// Stale copies move to the back of the read order; reads return the
	// new data from the healthy replicas.
	for b := int64(0); b < ra.blocks; b++ {
		if !ra.isStale(b, victim) {
			continue
		}
		ord := ra.readOrderAt(b, 0)
		if ord[len(ord)-1] != victim {
			t.Fatalf("block %d read order %v does not demote stale shard %d", b, ord, victim)
		}
	}
	// Each demotion lands in the typed ledger with its reason; nothing
	// else demoted the victim (no health plane is running here).
	if n := s.DemotionCount(victim, DemoteStale); n == 0 {
		t.Fatal("stale demotions not recorded in the ledger")
	}
	if n := s.DemotionCount(victim, DemoteBreakerOpen); n != 0 {
		t.Fatalf("%d breaker-open demotions without a health plane", n)
	}
	tier := s.ShardReport(victim)
	foundStale := false
	for _, d := range tier.Demotions {
		if d.Reason == DemoteStale && d.Count > 0 {
			foundStale = true
		}
	}
	if !foundStale {
		t.Fatalf("tier report demotions %+v missing the stale reason", tier.Demotions)
	}
	got := make([]float64, 16)
	if err := a.ReadSection([]int64{0, 0}, []int64{8, 2}, got); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("element %d = %v, want %v (stale copy served)", i, got[i], buf[i])
		}
	}
	// VerifyArray surfaces the stale copies as defects.
	defects, _, err := s.VerifyArray("X")
	if err != nil {
		t.Fatal(err)
	}
	if len(defects) != staleBlocks {
		t.Fatalf("%d stale defects reported, want %d", len(defects), staleBlocks)
	}

	// Shard recovers: a full-cover write clears the stale flags.
	ra.setLocal(s.shards[victim], good)
	if err := a.WriteSection([]int64{0, 0}, []int64{8, 2}, buf); err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < ra.blocks; b++ {
		if ra.isStale(b, victim) {
			t.Fatalf("block %d still stale after a full-cover write", b)
		}
	}
	if g := reg.Gauge(MetricDegradedBlocks).Value(); g != 0 {
		t.Fatalf("degraded gauge %g after recovery, want 0", g)
	}
}

// TestReadAsksOnlyCurrentCopiesBreakers pins which breakers a read
// asks: its non-stale candidates', whose lazy open → half-open
// transition the ask performs, and never a stale copy's, which the read
// demotes without asking — an ask would move the breaker to half-open,
// and the next write to the shard would then count as its probe.
func TestReadAsksOnlyCurrentCopiesBreakers(t *testing.T) {
	s := newTestStore(t, 4, 2, Options{Health: &health.Config{CooldownSeconds: 1e-9}})
	a, _ := s.Create("X", []int64{8, 2})
	ra := a.(*Array)
	cands := ra.candidates(0)
	pref, victim := cands[0], cands[1]
	buf := make([]float64, 16)
	if err := a.WriteSection([]int64{0, 0}, []int64{8, 2}, buf); err != nil {
		t.Fatal(err)
	}
	good := ra.reps[victim].la
	ra.setLocal(s.shards[victim], failWrites{Array: good})
	if err := a.WriteSection([]int64{0, 0}, []int64{8, 2}, buf); err != nil {
		t.Fatal(err)
	}
	ra.setLocal(s.shards[victim], good)
	if !ra.isStale(0, victim) {
		t.Fatal("the failed write left block 0's copy on the victim current")
	}
	tr := s.Health()
	tr.ForceState(pref, health.Open, 0)
	tr.ForceState(victim, health.Open, 0)
	lo, hi := ra.blockRange(0)
	if err := a.ReadSection([]int64{lo, 0}, []int64{hi - lo, 2}, make([]float64, 2*(hi-lo))); err != nil {
		t.Fatal(err)
	}
	if st := tr.Snapshot(pref).State; st == health.Open {
		t.Fatalf("current copy's shard %d breaker still open past its cooldown: the read did not ask it", pref)
	}
	if st := tr.Snapshot(victim).State; st != health.Open {
		t.Fatalf("stale copy's shard %d breaker went %v: the read asked it", victim, st)
	}
}

func TestHealArrayRepairsStaleCopies(t *testing.T) {
	s := newTestStore(t, 4, 2, Options{})
	a, _ := s.Create("X", []int64{8, 2})
	ra := a.(*Array)
	victim := ra.candidates(0)[0]

	buf := make([]float64, 16)
	for i := range buf {
		buf[i] = float64(i) + 7
	}
	good := ra.reps[victim].la
	ra.setLocal(s.shards[victim], failWrites{Array: good})
	if err := a.WriteSection([]int64{0, 0}, []int64{8, 2}, buf); err != nil {
		t.Fatal(err)
	}
	ra.setLocal(s.shards[victim], good)

	copied, unhealed, err := s.HealArray("X")
	if err != nil {
		t.Fatal(err)
	}
	if copied == 0 || unhealed != 0 {
		t.Fatalf("HealArray copied=%d unhealed=%d", copied, unhealed)
	}
	// The victim's base copy now carries the missed write.
	got := make([]float64, 4)
	if err := baseArray(t, s, victim, "X").ReadSection([]int64{0, 0}, []int64{2, 2}, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != buf[i] {
			t.Fatalf("healed stale element %d = %v, want %v", i, got[i], buf[i])
		}
	}
	if defects, _, _ := s.VerifyArray("X"); len(defects) != 0 {
		t.Fatalf("defects remain: %v", defects)
	}
}

func TestHealArrayUnhealedWithoutHealthyReplica(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestStore(t, 2, 2, Options{Metrics: reg})
	a, _ := s.Create("X", []int64{4, 2})
	buf := make([]float64, 8)
	if err := a.WriteSection([]int64{0, 0}, []int64{4, 2}, buf); err != nil {
		t.Fatal(err)
	}
	// Rot the single block on both replicas: nothing can heal it.
	for _, id := range a.(*Array).candidates(0) {
		if err := baseArray(t, s, id, "X").(disk.BitFlipper).FlipBit(0, 9); err != nil {
			t.Fatal(err)
		}
	}
	copied, unhealed, err := s.HealArray("X")
	if err != nil {
		t.Fatal(err)
	}
	if copied != 0 || unhealed == 0 {
		t.Fatalf("HealArray copied=%d unhealed=%d, want the block unhealed", copied, unhealed)
	}
	if n := reg.Counter(MetricRepairRecomputed).Value(); n == 0 {
		t.Fatal("repair.recomputed counter is zero")
	}
}

// TestRetryAbsorbsTransientFaults drives a faulted R=2 ring through ten
// write/read rounds. The retries absorb every fault, each fault costs
// its sub-operation exactly one more attempt, and the whole failover
// account repeats bit for bit whatever GOMAXPROCS: the collective runs
// its sub-operations in a fixed order, so retry-jitter keys and injector
// ordinals are drawn in program order, not scheduling order.
func TestRetryAbsorbsTransientFaults(t *testing.T) {
	type outcome struct {
		failover, time float64
		stats          []disk.Stats
		counts         []fault.Counts
	}
	scenario := func(faults *fault.Config) outcome {
		s := newTestStore(t, 6, 2, Options{Faults: faults, Retry: disk.DefaultRetryPolicy()})
		a, _ := s.Create("X", []int64{12, 3})
		buf := make([]float64, 36)
		for i := range buf {
			buf[i] = float64(i)
		}
		for iter := 0; iter < 10; iter++ {
			if err := a.WriteSection([]int64{0, 0}, []int64{12, 3}, buf); err != nil {
				t.Fatalf("iter %d write: %v", iter, err)
			}
			got := make([]float64, 36)
			if err := a.ReadSection([]int64{0, 0}, []int64{12, 3}, got); err != nil {
				t.Fatalf("iter %d read: %v", iter, err)
			}
			for i := range buf {
				if got[i] != buf[i] {
					t.Fatalf("iter %d element %d = %v, want %v", iter, i, got[i], buf[i])
				}
			}
		}
		o := outcome{failover: s.FailoverSeconds(), time: s.Time()}
		for i := 0; i < 6; i++ {
			o.stats = append(o.stats, s.ShardStats(i))
			if inj, ok := s.ShardBackend(i).(*fault.Injector); ok {
				o.counts = append(o.counts, inj.Counts())
			}
		}
		return o
	}
	faults := &fault.Config{Seed: 3, Rate: 0.3, MaxConsecutive: 2}
	want := scenario(faults)
	faulted := int64(0)
	for _, c := range want.counts {
		faulted += c.Faults()
	}
	if faulted == 0 {
		t.Fatal("schedule injected nothing")
	}
	if want.failover <= 0 {
		t.Fatal("transient retries charged no modelled backoff")
	}
	// Time() = slowest shard + the failover backoff account.
	maxShard := 0.0
	for _, st := range want.stats {
		maxShard = max(maxShard, st.Time())
	}
	if want.time != maxShard+want.failover {
		t.Fatalf("Time() = %g, want max-shard %g + failover %g", want.time, maxShard, want.failover)
	}
	// Every attempt is charged by its shard, so a shard's operations
	// beyond the fault-free run's sub-operations are its retries: one per
	// injected fault, none past a success and none given up.
	clean := scenario(nil)
	for i, c := range want.counts {
		subOps := clean.stats[i].ReadOps + clean.stats[i].WriteOps
		if c.Ops != subOps+c.Faults() || want.stats[i].ReadOps+want.stats[i].WriteOps != c.Ops {
			t.Errorf("shard %d: %d attempts (%d charged) for %d sub-operations and %d faults",
				i, c.Ops, want.stats[i].ReadOps+want.stats[i].WriteOps, subOps, c.Faults())
		}
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 10; rep++ {
			if got := scenario(faults); !reflect.DeepEqual(got, want) {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("GOMAXPROCS=%d run %d: failover %g, time %g, shards %v, injectors %v; first run %g, %g, %v, %v",
					procs, rep, got.failover, got.time, got.stats, got.counts, want.failover, want.time, want.stats, want.counts)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestRetryAttemptsPerReplica pins the per-replica retry budget: against
// shards whose every operation fails transiently, each replica of a
// sub-operation is tried exactly Retry.Attempts() times — no fewer, no
// more — with Attempts()-1 modelled backoffs, before a read fails over
// and, with no replica left, the section fails.
func TestRetryAttemptsPerReplica(t *testing.T) {
	pol := &disk.RetryPolicy{MaxAttempts: 3, BaseDelay: 1e-3}
	s := newTestStore(t, 2, 2, Options{
		Faults: &fault.Config{Seed: 1, Rate: 1, MaxConsecutive: 1 << 30},
		Retry:  pol,
	})
	a, _ := s.Create("X", []int64{4, 3}) // block 0 = rows [0, 2) on shards 0 and 1
	backoff := 0.0
	for att := 0; att+1 < pol.Attempts(); att++ {
		backoff += pol.Delay(att, 0)
	}
	want, wantBackoff := int64(0), 0.0
	for _, read := range []bool{true, false} {
		var err error
		if read {
			err = a.ReadSection([]int64{0, 0}, []int64{2, 3}, make([]float64, 6))
		} else {
			err = a.WriteSection([]int64{0, 0}, []int64{2, 3}, make([]float64, 6))
		}
		var be *BlockError
		if !errors.As(err, &be) || len(be.Errs) != 2 {
			t.Fatalf("read=%v: want a two-replica BlockError, got %v", read, err)
		}
		want += int64(pol.Attempts())
		wantBackoff += 2 * backoff
		for id := 0; id < 2; id++ {
			if got := s.ShardBackend(id).(*fault.Injector).Counts().Ops; got != want {
				t.Fatalf("read=%v: shard %d tried %d times, want %d (%d per sub-operation)", read, id, got, want, pol.Attempts())
			}
		}
		if got := s.FailoverSeconds(); math.Abs(got-wantBackoff) > 1e-15 {
			t.Fatalf("read=%v: failover backoff %g, want %g", read, got, wantBackoff)
		}
	}
}

// TestSectionAllocsIndependentOfBlocks pins the collective's scratch: a
// cost-only ring(64,2) with a health plane, whose 64-row array has 1-row
// blocks, allocates the same per section read or write whether the
// section spans one placement block or sixteen.
func TestSectionAllocsIndependentOfBlocks(t *testing.T) {
	s, err := New(Options{Shards: 64, Replicas: 2, Disk: testDisk(), Health: &health.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := s.Create("X", []int64{64, 8})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rows int64) (read, write float64) {
		lo, shape := []int64{8, 0}, []int64{rows, 8}
		write = testing.AllocsPerRun(20, func() {
			if err := a.WriteSection(lo, shape, nil); err != nil {
				t.Fatal(err)
			}
		})
		read = testing.AllocsPerRun(20, func() {
			if err := a.ReadSection(lo, shape, nil); err != nil {
				t.Fatal(err)
			}
		})
		return read, write
	}
	r1, w1 := allocs(1)
	r16, w16 := allocs(16)
	if r16 != r1 || w16 != w1 {
		t.Fatalf("allocations grow with the block count: read %v -> %v, write %v -> %v", r1, r16, w1, w16)
	}
}

// TestSectionAllocsFullStack pins the full decorator stack the
// stack-dryrun benchmark runs — a trace.Recorder in front of a cost-only
// ring(4,2) with a health plane, a zero-rate fault schedule on every
// shard and a metrics registry — to zero allocations per healthy section
// read and per R=2 section write, once each array's counters exist.
func TestSectionAllocsFullStack(t *testing.T) {
	s, err := New(Options{Shards: 4, Replicas: 2, Disk: testDisk(),
		Health: &health.Config{}, Faults: &fault.Config{Seed: 1}, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := trace.NewWithDisk(s, testDisk()).Create("X", []int64{64, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Rows [12, 20) straddle the first two 16-row blocks: two runs.
	for _, sec := range [][2][]int64{{{16, 0}, {8, 8}}, {{12, 0}, {8, 8}}} {
		lo, shape := sec[0], sec[1]
		if n := testing.AllocsPerRun(50, func() {
			if err := a.WriteSection(lo, shape, nil); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("section write at %v: %v allocations per op, want 0", lo, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := a.ReadSection(lo, shape, nil); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("section read at %v: %v allocations per op, want 0", lo, n)
		}
	}
}

// TestConcurrentCollectivesWithHealth runs section writes and reads on
// one array from four goroutines at once — a data-mode ring(4,2) with a
// health plane and latency spikes on every shard, so the scratch slot,
// the routing snapshot, the breaker asks and the spike accounts are all
// shared — while the test goroutine reads ShardStats, Suspicion and the
// tier reports. Each goroutine owns rows that straddle a block boundary
// and checks it reads back what it wrote. Run it under -race.
func TestConcurrentCollectivesWithHealth(t *testing.T) {
	defer leaktest.Check(t)()
	s := newTestStore(t, 4, 2, Options{
		Health: &health.Config{},
		Faults: &fault.Config{Seed: 3, LatencyRate: 0.2, LatencySeconds: 0.5},
	})
	const workers, rows, cols = 4, 6, 3
	a, err := s.Create("X", []int64{32, cols})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var finished atomic.Int32
	errs := make([]error, workers)
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer finished.Add(1)
			// Rows [6g+1, 6g+7) cross the 8-row block boundaries.
			lo, shape := []int64{int64(rows*g + 1), 0}, []int64{rows, cols}
			buf, got := make([]float64, rows*cols), make([]float64, rows*cols)
			for it := range 50 {
				for i := range buf {
					buf[i] = float64(g*1000000 + it*1000 + i)
				}
				if err := a.WriteSection(lo, shape, buf); err != nil {
					errs[g] = err
					return
				}
				if err := a.ReadSection(lo, shape, got); err != nil {
					errs[g] = err
					return
				}
				if !slices.Equal(got, buf) {
					errs[g] = fmt.Errorf("goroutine %d iteration %d read %v, wrote %v", g, it, got, buf)
					return
				}
			}
		}()
	}
	for finished.Load() < workers {
		for i := range 4 {
			_ = s.ShardStats(i)
			_ = s.ShardReport(i)
		}
		_ = s.Suspicion("X")
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	// Every section op charged the front door once.
	if st := s.Stats(); st.ReadOps != workers*50 || st.WriteOps != workers*50 {
		t.Fatalf("front door charged %d reads and %d writes, want %d each", st.ReadOps, st.WriteOps, workers*50)
	}
}

// readOrderAt routes a read of block b alone at modelled time now and
// returns its replica order: the order a section read confined to the
// block takes, its demotions tallied.
func (a *Array) readOrderAt(b int64, now float64) []int {
	sc := a.getScratch()
	defer a.putScratch(sc)
	lo, hi := a.blockRange(b)
	a.route(sc, lo, hi-lo, true, now)
	return sc.runs[0].order
}

// checkStaleFlags requires every stale flag to name a current candidate
// of its block: a copy out of the placement is out of the read path.
func checkStaleFlags(t *testing.T, ra *Array) {
	t.Helper()
	ra.amu.Lock()
	defer ra.amu.Unlock()
	for b, set := range ra.stale {
		for id := range set {
			if !slices.Contains(ra.cands[b], id) {
				t.Fatalf("block %d flags shard %d stale but places it on %v", b, id, ra.cands[b])
			}
		}
	}
}

// layoutOf renders an array's placement — block bounds and replica
// lists — for comparing two stores.
func layoutOf(ra *Array) string {
	ra.amu.Lock()
	defer ra.amu.Unlock()
	return fmt.Sprint(ra.bounds, ra.cands)
}

// primaryRows returns how many of ra's rows each shard is primary for.
func primaryRows(ra *Array) map[int]int64 {
	ra.amu.Lock()
	defer ra.amu.Unlock()
	out := map[int]int64{}
	for b, c := range ra.cands {
		out[c[0]] += ra.bounds[b+1] - ra.bounds[b]
	}
	return out
}

// TestRebalanceAddShard grows a 3-shard R=2 ring whose shard 0 missed
// the last write. The new shard takes the 4-row tail of each 16-row
// range as primary, copied from a current replica; the stale flags
// follow their rows; and a second store with the same options and the
// same change places identically.
func TestRebalanceAddShard(t *testing.T) {
	var layouts []string
	for range 2 {
		s := newTestStore(t, 3, 2, Options{})
		a, _ := s.Create("X", []int64{48, 2})
		ra := a.(*Array)
		buf := make([]float64, 96)
		if err := a.WriteSection([]int64{0, 0}, []int64{48, 2}, buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = float64(i) * 2
		}
		good := ra.reps[0].la
		ra.setLocal(s.shards[0], failWrites{Array: good})
		if err := a.WriteSection([]int64{0, 0}, []int64{48, 2}, buf); err != nil {
			t.Fatal(err)
		}
		ra.setLocal(s.shards[0], good)

		rep, err := s.AddShard()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Shards != 4 {
			t.Fatalf("live shards after add = %d, want 4", rep.Shards)
		}
		if rep.BlocksMoved != 3 || rep.Unmoved != 0 || rep.BytesMoved != 12*2*8 {
			t.Fatalf("rebalance moved %d blocks / %d bytes (%d unmoved), want 3 / %d (0)",
				rep.BlocksMoved, rep.BytesMoved, rep.Unmoved, 12*2*8)
		}
		if rep.Seconds <= 0 {
			t.Fatal("rebalance charged no modelled time")
		}
		if got := primaryRows(ra); !reflect.DeepEqual(got, map[int]int64{0: 12, 1: 12, 2: 12, 3: 12}) {
			t.Fatalf("primary rows per shard %v, want 12 each", got)
		}
		// Shard 0's copies are stale exactly where it still holds rows.
		checkStaleFlags(t, ra)
		for b := int64(0); b < ra.blocks; b++ {
			if ra.isStale(b, 0) != slices.Contains(ra.candidates(b), 0) {
				t.Fatalf("block %d on %v: shard 0 stale=%v", b, ra.candidates(b), ra.isStale(b, 0))
			}
		}
		got := make([]float64, 96)
		if err := a.ReadSection([]int64{0, 0}, []int64{48, 2}, got); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			if got[i] != buf[i] {
				t.Fatalf("element %d = %v, want %v after add", i, got[i], buf[i])
			}
		}
		if _, _, err := s.HealArray("X"); err != nil {
			t.Fatal(err)
		}
		if defects, _, _ := s.VerifyArray("X"); len(defects) != 0 {
			t.Fatalf("defects after add and heal: %v", defects)
		}
		layouts = append(layouts, layoutOf(ra))
	}
	if layouts[0] != layouts[1] {
		t.Fatalf("same options and changes placed differently:\n%s\n%s", layouts[0], layouts[1])
	}
}

// TestRebalanceDrainShard drains two shards of a 4-shard R=2 ring: each
// drain copies exactly the rows the shard held, no shard becomes primary
// for more than twice its fair share, and a second store with the same
// options and the same changes places identically.
func TestRebalanceDrainShard(t *testing.T) {
	var layouts []string
	for range 2 {
		s := newTestStore(t, 4, 2, Options{})
		a, _ := s.Create("X", []int64{48, 2})
		buf := make([]float64, 96)
		for i := range buf {
			buf[i] = float64(i) + 11
		}
		if err := a.WriteSection([]int64{0, 0}, []int64{48, 2}, buf); err != nil {
			t.Fatal(err)
		}
		rep, err := s.DrainShard(1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Shards != 3 {
			t.Fatalf("live shards after drain = %d, want 3", rep.Shards)
		}
		// Shard 1 held range 1 as primary and range 0 as its replica.
		if rep.BlocksMoved != 2 || rep.Unmoved != 0 || rep.BytesMoved != 24*2*8 {
			t.Fatalf("drain moved %d blocks / %d bytes (%d unmoved), want 2 / %d (0)",
				rep.BlocksMoved, rep.BytesMoved, rep.Unmoved, 24*2*8)
		}
		ra := a.(*Array)
		for b := int64(0); b < ra.blocks; b++ {
			cands := ra.candidates(b)
			if len(cands) != 2 {
				t.Fatalf("block %d has %d replicas after drain", b, len(cands))
			}
			for _, id := range cands {
				if id == 1 {
					t.Fatalf("block %d still placed on drained shard", b)
				}
			}
		}
		for id, rows := range primaryRows(ra) {
			if rows > 2*16 {
				t.Fatalf("shard %d is primary for %d rows, above 2·⌈48/3⌉", id, rows)
			}
		}
		checkStaleFlags(t, ra)
		got := make([]float64, 96)
		if err := a.ReadSection([]int64{0, 0}, []int64{48, 2}, got); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			if got[i] != buf[i] {
				t.Fatalf("element %d = %v, want %v after drain", i, got[i], buf[i])
			}
		}
		if defects, _, _ := s.VerifyArray("X"); len(defects) != 0 {
			t.Fatalf("defects after drain: %v", defects)
		}
		// Draining again is refused (not live), and draining below the
		// replication factor is refused.
		if _, err := s.DrainShard(1); err == nil {
			t.Fatal("draining a drained shard must fail")
		}
		if _, err := s.DrainShard(0); err != nil {
			t.Fatal(err)
		}
		checkStaleFlags(t, ra)
		if err := a.ReadSection([]int64{0, 0}, []int64{48, 2}, got); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			if got[i] != buf[i] {
				t.Fatalf("element %d = %v, want %v after second drain", i, got[i], buf[i])
			}
		}
		if _, err := s.DrainShard(2); err == nil {
			t.Fatal("draining below the replication factor must fail")
		}
		layouts = append(layouts, layoutOf(ra))
	}
	if layouts[0] != layouts[1] {
		t.Fatalf("same options and changes placed differently:\n%s\n%s", layouts[0], layouts[1])
	}
}

func TestReopenKeepsData(t *testing.T) {
	s := newTestStore(t, 3, 2, Options{
		Faults: &fault.Config{Seed: 1, Rate: 0.01},
		Retry:  disk.DefaultRetryPolicy(),
	})
	a, _ := s.Create("X", []int64{6, 2})
	buf := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if err := a.WriteSection([]int64{0, 0}, []int64{6, 2}, buf); err != nil {
		t.Fatal(err)
	}
	be, err := s.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if be != disk.Backend(s) {
		t.Fatal("Reopen must return the ring itself")
	}
	got := make([]float64, 12)
	if err := a.ReadSection([]int64{0, 0}, []int64{6, 2}, got); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("element %d = %v after reopen, want %v", i, got[i], buf[i])
		}
	}
}
