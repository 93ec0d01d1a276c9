package ring

// Gray-failure chaos suite. The four-index plan runs on a replicated
// ring while one shard suffers a seeded brownout — a persistent latency
// window with no typed errors, the failure mode replica failover cannot
// see. With the health plane on, the breaker must open on the EWMA
// breach, hedged reads must rescue the spiked reads that race it open,
// and the breaker must traverse open → half-open → closed as the window
// heals, all on the modelled clock: the scenario is bit-identical and
// byte-identical (event log included) across same-seed runs. CI runs
// this under the race detector (the gray-chaos job selects TestGray).

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// grayFaults is the seeded brownout: every op on shard 1 inside the
// ordinal window [60, 100) pays one modelled second of extra latency.
// No error injection — the shard is slow, not broken. Shard 1 serves
// about 250 ops, so the window closes with room left for the breaker to
// probe its way closed.
func grayFaults(t *testing.T) *fault.Config {
	t.Helper()
	cfg, err := cliutil.ParseFaultSpec("seed=11,latsec=1,latwindow=60,latwindowops=40,shard=1")
	if err != nil {
		t.Fatal(err)
	}
	return &cfg
}

// grayOutcome is one scenario run's observable state, for the
// determinism check.
type grayOutcome struct {
	outputs     map[string]*tensor.Tensor
	front       disk.Stats
	frontRead   float64 // experienced: front read + tail
	tailRead    float64
	spikes      int64
	hedgeIssued int64
	hedgeWon    int64
	opens       int64
	halfOpens   int64
	closes      int64
	scrubArrays int
	logBytes    []byte
}

// runGrayScenario executes the brownout run with the health plane on
// and the scrub pass scheduled across unit barriers, under a pinned
// wall clock so the JSONL event stream can be compared byte-for-byte.
func runGrayScenario(t *testing.T) grayOutcome {
	t.Helper()
	plan, inputs, cfg := fourIndexPlan(t)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	epoch := time.UnixMilli(1700000000000)
	log := obs.NewLogAt(obs.LevelInfo, obs.NewWriterSink(&buf), func() time.Time { return epoch })
	st, err := New(Options{
		Shards:   4,
		Replicas: 2,
		Disk:     cfg.Disk,
		WithData: true,
		Faults:   grayFaults(t),
		Retry:    disk.DefaultRetryPolicy(),
		Health:   &health.Config{},
		Metrics:  reg,
		Log:      log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sched, err := health.NewScrubScheduler(st, health.SchedOptions{Interval: 2, Repair: true, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(plan, st, inputs, exec.Options{OnUnit: sched.Tick})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Drain(); err != nil {
		t.Fatal(err)
	}

	inj, ok := st.ShardBackend(1).(*fault.Injector)
	if !ok {
		t.Fatal("shard 1 is not wrapped by the fault injector")
	}
	issued, won, _ := st.HedgeCounts()
	opens, halfOpens, closes := st.BreakerTransitions()
	return grayOutcome{
		outputs:     res.Outputs,
		front:       res.Stats,
		frontRead:   st.FrontReadSeconds(),
		tailRead:    st.TailReadSeconds(),
		spikes:      inj.Counts().LatencySpikes,
		hedgeIssued: issued,
		hedgeWon:    won,
		opens:       opens,
		halfOpens:   halfOpens,
		closes:      closes,
		scrubArrays: sched.Report().Arrays,
		logBytes:    append([]byte(nil), buf.Bytes()...),
	}
}

// TestGrayChaosHealthPlane is the gray-failure acceptance test:
// bit-identical output versus the fault-free single-disk run, zero
// recompute fallbacks, the experienced front-door read within 1.25× of
// the charged single-disk figure, at least one hedge won, and a full
// breaker traversal — with the whole scenario, event log bytes
// included, deterministic across two same-seed runs.
func TestGrayChaosHealthPlane(t *testing.T) {
	plan, inputs, cfg := fourIndexPlan(t)
	ref, err := exec.Run(plan, disk.NewSim(cfg.Disk, true), inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}

	first := runGrayScenario(t)
	if first.spikes == 0 {
		t.Fatal("the brownout injected no latency; the scenario exercised nothing")
	}
	for name, want := range ref.Outputs {
		if d := tensor.MaxAbsDiff(first.outputs[name], want); d != 0 {
			t.Fatalf("output %q differs from the fault-free run by %g", name, d)
		}
	}

	// The brownout is latency-only: nothing fails, nothing is recomputed,
	// and the scheduled scrub pass covers every array cleanly.
	if first.scrubArrays == 0 {
		t.Fatal("the scheduled scrub covered nothing")
	}

	// Tail tolerance: the experienced read time (front charge + spikes
	// actually waited out, net of hedge rescues) stays within 1.25× of
	// the charged single-disk figure. Without mitigation every spike
	// would land in the tail (see TestGrayBrownoutUnmitigated).
	if limit := 1.25 * first.front.ReadTime; first.frontRead > limit {
		t.Fatalf("experienced front read %.3fs exceeds 1.25× charged %.3fs (tail %.3fs)",
			first.frontRead, first.front.ReadTime, first.tailRead)
	}
	if first.hedgeWon == 0 {
		t.Fatalf("no hedge won (issued %d); the tail bound held for the wrong reason", first.hedgeIssued)
	}
	if first.opens == 0 || first.halfOpens == 0 || first.closes == 0 {
		t.Fatalf("breaker did not traverse open→half-open→closed: opens=%d halfOpens=%d closes=%d",
			first.opens, first.halfOpens, first.closes)
	}
	for _, ev := range []string{`"breaker.open"`, `"breaker.half-open"`, `"breaker.closed"`, `"hedge.won"`, `"scrub.sched.done"`} {
		if !bytes.Contains(first.logBytes, []byte(ev)) {
			t.Fatalf("event log missing %s event", ev)
		}
	}

	second := runGrayScenario(t)
	for name, want := range first.outputs {
		if d := tensor.MaxAbsDiff(second.outputs[name], want); d != 0 {
			t.Fatalf("re-run output %q differs by %g; scenario is not deterministic", name, d)
		}
	}
	if second.front != first.front || second.frontRead != first.frontRead ||
		second.spikes != first.spikes || second.hedgeIssued != first.hedgeIssued ||
		second.hedgeWon != first.hedgeWon || second.opens != first.opens ||
		second.halfOpens != first.halfOpens || second.closes != first.closes {
		t.Fatalf("tallies differ across identical runs:\n first: %+v\nsecond: %+v", first, second)
	}
	if !bytes.Equal(second.logBytes, first.logBytes) {
		t.Fatalf("event logs differ across identical runs (%d vs %d bytes)", len(first.logBytes), len(second.logBytes))
	}
}

// TestGrayBrownoutUnmitigated pins the counterfactual: the same
// brownout with the breakers and hedges effectively disabled (budgets
// too large to ever trip) pushes the whole window into the tail, so the
// experienced front read leaves the 1.25× envelope the mitigated run
// stays inside. This is the gap tables.GrayStudy measures.
func TestGrayBrownoutUnmitigated(t *testing.T) {
	plan, inputs, cfg := fourIndexPlan(t)
	huge := 1e18
	st, err := New(Options{
		Shards:   4,
		Replicas: 2,
		Disk:     cfg.Disk,
		WithData: true,
		Faults:   grayFaults(t),
		Retry:    disk.DefaultRetryPolicy(),
		Health:   &health.Config{LatencyBudget: huge, ErrorBudget: huge, MinHedgeRatio: huge},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := exec.Run(plan, st, inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	issued, _, _ := st.HedgeCounts()
	opens, _, _ := st.BreakerTransitions()
	if issued != 0 || opens != 0 {
		t.Fatalf("mitigation fired despite disabled budgets: hedges=%d opens=%d", issued, opens)
	}
	if st.FrontReadSeconds() <= 1.25*res.Stats.ReadTime {
		t.Fatalf("unmitigated brownout stayed inside the envelope (%.3fs vs charged %.3fs); the scenario is too mild to prove anything",
			st.FrontReadSeconds(), res.Stats.ReadTime)
	}
}
