package ring

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/health"
)

// rebalanceReadDeltas runs one AddShard over a 3-shard store seeded
// identically each call and returns per-shard base-backend read-op
// deltas during the movement, the rebalance report, and the store.
// openShards are forced open (with an effectively infinite cooldown, so
// they stay open under StateAt) before the membership change.
func rebalanceReadDeltas(t *testing.T, openShards ...int) (map[int]int64, *RebalanceReport, *Store) {
	t.Helper()
	s := newTestStore(t, 3, 2, Options{
		Health: &health.Config{CooldownSeconds: 1e18},
	})
	a, err := s.Create("X", []int64{48, 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 96)
	for i := range buf {
		buf[i] = float64(i) * 3
	}
	if err := a.WriteSection([]int64{0, 0}, []int64{48, 2}, buf); err != nil {
		t.Fatal(err)
	}
	for _, id := range openShards {
		s.Health().ForceState(id, health.Open, 0)
	}
	before := map[int]int64{}
	for i := 0; i < 3; i++ {
		base, _ := disk.Find[*disk.Sim](s.ShardBackend(i))
		before[i] = base.Stats().ReadOps
	}
	rep, err := s.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	delta := map[int]int64{}
	for i := 0; i < 3; i++ {
		base, _ := disk.Find[*disk.Sim](s.ShardBackend(i))
		delta[i] = base.Stats().ReadOps - before[i]
	}
	return delta, rep, s
}

// TestRebalanceSkipsOpenBreakerSource: a shard whose breaker is open is
// never used as a movement source — the copy comes from the next
// healthy replica instead, and nothing goes unmoved as long as one
// healthy source exists.
func TestRebalanceSkipsOpenBreakerSource(t *testing.T) {
	// Control run: find a shard the movement actually reads from.
	delta, rep, _ := rebalanceReadDeltas(t)
	if rep.BlocksMoved == 0 || rep.Unmoved != 0 {
		t.Fatalf("control rebalance moved %d blocks (%d unmoved)", rep.BlocksMoved, rep.Unmoved)
	}
	victim, most := -1, int64(0)
	for id, d := range delta {
		if d > most {
			victim, most = id, d
		}
	}
	if victim < 0 {
		t.Fatal("control rebalance read from no shard")
	}

	// Same deterministic placement, but the busiest source's breaker is
	// open: its reads drop to zero, the other replicas cover, and the
	// moved data still verifies.
	delta2, rep2, s := rebalanceReadDeltas(t, victim)
	if delta2[victim] != 0 {
		t.Fatalf("open shard %d served %d movement reads, want 0", victim, delta2[victim])
	}
	if rep2.BlocksMoved != rep.BlocksMoved || rep2.Unmoved != 0 {
		t.Fatalf("rebalance around the open shard moved %d blocks (%d unmoved), want %d (0)",
			rep2.BlocksMoved, rep2.Unmoved, rep.BlocksMoved)
	}
	a, err := s.Open("X")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 96)
	if err := a.ReadSection([]int64{0, 0}, []int64{48, 2}, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != float64(i)*3 {
			t.Fatalf("element %d = %v after rebalance around open shard", i, got[i])
		}
	}
	if defects, _, _ := s.VerifyArray("X"); len(defects) != 0 {
		t.Fatalf("defects after rebalance: %v", defects)
	}
}

// TestRebalanceAllSourcesOpenGoesStale: when every possible source's
// breaker is open there is no healthy copy to move, so the new replicas
// start stale and the report counts them unmoved — same degraded
// contract as losing the sources outright.
func TestRebalanceAllSourcesOpenGoesStale(t *testing.T) {
	delta, rep, s := rebalanceReadDeltas(t, 0, 1, 2)
	for id, d := range delta {
		if d != 0 {
			t.Fatalf("open shard %d served %d movement reads, want 0", id, d)
		}
	}
	if rep.BlocksMoved != 0 || rep.Unmoved == 0 {
		t.Fatalf("rebalance with every source open moved %d blocks (%d unmoved)", rep.BlocksMoved, rep.Unmoved)
	}
	// The unmoved copies are stale, out of the read path, and VerifyArray
	// surfaces them.
	defects, _, err := s.VerifyArray("X")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(defects)) != rep.Unmoved {
		t.Fatalf("%d stale defects for %d unmoved copies", len(defects), rep.Unmoved)
	}
}
