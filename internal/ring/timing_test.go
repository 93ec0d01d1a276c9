package ring

// Satellite regression for the ring's two-tier cost accounting: the
// execution engine's disk-track span total must still equal the
// backend's Stats.Time() when the backend is a ring — in both engines,
// and regardless of replica failover traffic. The front door charges
// exactly one single-disk-equivalent operation per section call (the
// figure exec's spans model); failed attempts, replication fan-out, and
// failover backoff live only in the per-shard accounting.

import (
	"math"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/tiling"
)

func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}

// buildPlan generates prog's plan at the given tile sizes.
func buildPlan(t *testing.T, prog *loops.Program, cfg machine.Config, tiles map[string]int64) *codegen.Plan {
	t.Helper()
	tree, err := tiling.Tile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := nlp.Build(m)
	plan, err := codegen.Generate(p, p.Encode(tiles, nil))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// twoIndexPlan builds the fused two-index transform with partial tiles.
func twoIndexPlan(t *testing.T) (*codegen.Plan, map[string]*tensor.Tensor, machine.Config) {
	t.Helper()
	cfg := machine.Small(4 << 10)
	plan := buildPlan(t, loops.TwoIndexFused(12, 16), cfg, map[string]int64{"i": 3, "j": 4, "m": 5, "n": 6})
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 9)
	return plan, inputs, cfg
}

// blockedRing builds a GA/DRA-style ring: p shards, R=1.
func blockedRing(t *testing.T, p int, d machine.Disk, withData bool) *Store {
	t.Helper()
	st, err := New(Options{Shards: p, Replicas: 1, Disk: d, WithData: withData})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestBlockedPlanRuns runs generated plans on R=1 rings the way
// Table 4 does: with data the output matches the reference interpreter
// at any shard count, a dry run moves exactly the single-disk volume,
// and the parallel time shrinks as shards are added.
func TestBlockedPlanRuns(t *testing.T) {
	plan, inputs, cfg := twoIndexPlan(t)
	t.Run("matches_reference", func(t *testing.T) {
		want, err := loops.Interpret(loops.TwoIndexFused(12, 16), inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 5} {
			res, err := exec.Run(plan, blockedRing(t, p, cfg.Disk, true), inputs, exec.Options{})
			if err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
			if d := tensor.MaxAbsDiff(res.Outputs["B"], want["B"]); d > 1e-9 {
				t.Fatalf("P=%d: result differs from the reference by %g", p, d)
			}
		}
	})

	// The shards move the single disk's bytes between them; only the
	// wall clock divides.
	t.Run("dry_run_volume", func(t *testing.T) {
		single := disk.NewSim(cfg.Disk, false)
		if _, err := exec.Run(plan, single, nil, exec.Options{DryRun: true}); err != nil {
			t.Fatal(err)
		}
		quad := blockedRing(t, 4, cfg.Disk, false)
		if _, err := exec.Run(plan, quad, nil, exec.Options{DryRun: true}); err != nil {
			t.Fatal(err)
		}
		s1, s4 := single.Stats(), quad.AggregateStats()
		if s1.BytesRead != s4.BytesRead || s1.BytesWritten != s4.BytesWritten {
			t.Fatalf("volumes differ: single %+v vs shards %+v", s1, s4)
		}
	})

	// Transfer dominates at this size, so each doubling of P should come
	// near 2x (Table 4's bandwidth half of the effect).
	t.Run("time_scales", func(t *testing.T) {
		big := machine.Small(64 << 20)
		big.Disk = testDisk()
		bigPlan := buildPlan(t, loops.TwoIndexFused(2000, 2400), big, map[string]int64{"i": 600, "j": 600, "m": 500, "n": 500})
		times := map[int]float64{}
		for _, p := range []int{1, 2, 4} {
			st := blockedRing(t, p, big.Disk, false)
			if _, err := exec.Run(bigPlan, st, nil, exec.Options{DryRun: true}); err != nil {
				t.Fatal(err)
			}
			times[p] = st.Time()
		}
		if times[1]/times[2] < 1.5 || times[2]/times[4] < 1.5 {
			t.Fatalf("parallel time scales too weakly: %v", times)
		}
	})
}

// TestRingSpanStatsInvariant pins the obs acceptance invariant on a
// ring backend: for the serial and the pipelined engine, with and
// without a shard-targeted fault schedule forcing replica failovers,
// the disk-track span total equals Result.Stats.Time(), and the
// faulted run's front-door accounting is identical to the fault-free
// one (failover costs never leak into the front door).
func TestRingSpanStatsInvariant(t *testing.T) {
	plan, inputs, cfg := twoIndexPlan(t)
	faults := &fault.Config{Seed: 3, Rate: 0.05, BitFlipRate: 0.04, MaxConsecutive: 2, Shard: 2}

	type key struct {
		pipelined bool
		faulted   bool
	}
	front := map[key]disk.Stats{}
	for _, faulted := range []bool{false, true} {
		for _, pipelined := range []bool{false, true} {
			reg := obs.NewRegistry()
			opt := Options{
				Shards:   3,
				Replicas: 2,
				Disk:     cfg.Disk,
				WithData: true,
				Retry:    disk.DefaultRetryPolicy(),
				Metrics:  reg,
			}
			if faulted {
				opt.Faults = faults
			}
			st, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTracer()
			res, err := exec.Run(plan, st, inputs, exec.Options{
				Pipeline: pipelined,
				NoFetch:  true,
				Tracer:   tr,
			})
			if err != nil {
				t.Fatalf("pipelined=%v faulted=%v: %v", pipelined, faulted, err)
			}

			// The invariant: disk-track spans == front-door modelled time.
			if got, want := tr.TrackSeconds(obs.TrackDisk), res.Stats.Time(); !closeRel(got, want) {
				t.Fatalf("pipelined=%v faulted=%v: disk-track %.12g != Stats.Time() %.12g",
					pipelined, faulted, got, want)
			}
			front[key{pipelined, faulted}] = res.Stats

			if faulted {
				fo := int64(0)
				fv := reg.CounterVec(MetricFailover, "shard")
				for i := 0; i < 3; i++ {
					fo += fv.With(st.shards[i].name).Value()
				}
				if fo == 0 {
					t.Fatalf("pipelined=%v: fault schedule forced no failovers; invariant unexercised", pipelined)
				}
				// The per-shard tier owns the failover story: Time() is the
				// slowest shard plus the modelled retry backoff.
				maxShard := 0.0
				for i := 0; i < 3; i++ {
					if st.ShardStats(i).Time() > maxShard {
						maxShard = st.ShardStats(i).Time()
					}
				}
				if got, want := st.Time(), maxShard+st.FailoverSeconds(); !closeRel(got, want) {
					t.Fatalf("pipelined=%v: ring Time() %.12g != max shard %.12g + failover %.12g",
						pipelined, got, maxShard, st.FailoverSeconds())
				}
			}
			st.Close()
		}
	}
	// Both engines issue the same section stream, and failover never
	// touches the front door: all four front-door accounts agree.
	base := front[key{false, false}]
	for k, st := range front {
		if st != base {
			t.Fatalf("front-door stats diverge: %+v = %+v, baseline %+v", k, st, base)
		}
	}
}
