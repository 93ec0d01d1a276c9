package ring

// Ring chaos suite — the PR's acceptance scenario. A four-index plan
// runs on a replicated ring while one shard suffers a persistent
// whole-shard failure window plus silent bit rot (the schedule comes in
// through the -faults spec syntax, shard selector included). With R=2
// the run must complete without restarts or recompute fallbacks: reads
// fail over, writes degrade, and the post-run repair scrub heals every
// defective copy from its healthy peer. CI runs these under the race
// detector (the ring-chaos job selects TestRingChaos).

import (
	"testing"

	"repro/internal/cliutil"
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

// fourIndexPlan builds the paper's four-index transform at chaos scale.
func fourIndexPlan(t *testing.T) (*codegen.Plan, map[string]*tensor.Tensor, machine.Config) {
	t.Helper()
	cfg := machine.Small(1 << 22)
	n, v := int64(7), int64(5)
	prog := loops.FourIndexAbstract(n, v)
	tree, err := tiling.Tile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := nlp.Build(m)
	x := p.Encode(map[string]int64{"p": 3, "q": 4, "r": 2, "s": 5, "a": 2, "b": 3, "c": 4, "d": 1}, nil)
	plan, err := codegen.Generate(p, x)
	if err != nil {
		t.Fatal(err)
	}
	inputs := expr.RandomInputs(expr.FourIndexTransform(n, v), 7)
	return plan, inputs, cfg
}

// chaosFaults is the seeded whole-shard failure scenario: a persistent
// window plus silent bit rot, confined to shard 1 by the spec's shard
// selector (so every block keeps one never-faulted replica).
func chaosFaults(t *testing.T) *fault.Config {
	t.Helper()
	cfg, err := cliutil.ParseFaultSpec("seed=5,rate=0.02,maxconsec=2,bitflip=0.05,persistent=40,persistentops=30,shard=1")
	if err != nil {
		t.Fatal(err)
	}
	return &cfg
}

// chaosOutcome is one scenario run's observable state, for the
// determinism check.
type chaosOutcome struct {
	outputs  map[string]*tensor.Tensor
	front    disk.Stats
	faults   int64
	healed   int64
	copied   int64
	failover int64
}

// runChaosScenario executes the full scenario: resilient run on the
// faulted ring, then a repair scrub, then a final clean-verify scrub.
func runChaosScenario(t *testing.T, plan *codegen.Plan, inputs map[string]*tensor.Tensor, cfg machine.Config, pipelined bool) chaosOutcome {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := New(Options{
		Shards:   4,
		Replicas: 2,
		Disk:     cfg.Disk,
		WithData: true,
		Faults:   chaosFaults(t),
		Retry:    disk.DefaultRetryPolicy(),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	res, rep, err := exec.RunResilient(nil, plan, st, inputs, exec.Options{
		Pipeline: pipelined,
	}, exec.RecoveryOptions{})
	if err != nil {
		t.Fatalf("pipelined=%v: %v\nreport: %s", pipelined, err, rep)
	}
	// Replica failover must mask the whole-shard window: no restarts, no
	// integrity escalations, and in particular zero recompute fallbacks —
	// every block kept a healthy replica.
	if rep.Restarts != 0 {
		t.Fatalf("pipelined=%v: %d restarts, want failover to mask the shard failure\nreport: %s",
			pipelined, rep.Restarts, rep)
	}
	if len(rep.Heals) != 0 {
		t.Fatalf("pipelined=%v: heal actions %+v, want none (failover must mask integrity faults)",
			pipelined, rep.Heals)
	}
	inj, ok := st.ShardBackend(1).(*fault.Injector)
	if !ok {
		t.Fatal("shard 1 is not wrapped by the fault injector")
	}
	if inj.Counts().Faults() == 0 {
		t.Fatal("the schedule injected nothing")
	}
	for i := 0; i < 4; i++ {
		if i == 1 {
			continue
		}
		if _, ok := st.ShardBackend(i).(*fault.Injector); ok {
			t.Fatalf("shard %d is wrapped despite the shard=1 selector", i)
		}
	}

	// Repair scrub: every defective copy (rot on shard 1, stale marks
	// from the persistent window) heals from its healthy peer.
	srep, err := disk.Scrub(st, disk.ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if srep.HealedFromReplica == 0 {
		t.Fatalf("pipelined=%v: scrub healed nothing from replicas: %s", pipelined, srep)
	}
	if n := reg.Counter(MetricRepairCopied).Value(); n == 0 {
		t.Fatal("ring.repair.copied is zero after the repair scrub")
	}
	if n := reg.Counter(MetricRepairRecomputed).Value(); n != 0 {
		t.Fatalf("ring.repair.recomputed = %d, want 0 (a healthy replica always existed)", n)
	}

	// The healed ring verifies clean.
	final, err := disk.Scrub(st, disk.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !final.OK() {
		t.Fatalf("pipelined=%v: post-repair scrub still finds defects: %s", pipelined, final)
	}

	failover := int64(0)
	fv := reg.CounterVec(MetricFailover, "shard")
	for i := 0; i < 4; i++ {
		failover += fv.With(st.shards[i].name).Value()
	}
	return chaosOutcome{
		outputs:  res.Outputs,
		front:    res.Stats,
		faults:   inj.Counts().Faults(),
		healed:   srep.HealedFromReplica,
		copied:   reg.Counter(MetricRepairCopied).Value(),
		failover: failover,
	}
}

// TestRingChaosSelfHealing is the acceptance test: bit-identical output
// versus the fault-free single-disk run, zero recompute fallbacks, a
// clean post-repair scrub — and the whole scenario deterministic across
// two runs with the same seeds (the serial engine gives every shard a
// deterministic sub-operation stream).
func TestRingChaosSelfHealing(t *testing.T) {
	plan, inputs, cfg := fourIndexPlan(t)
	ref, err := exec.Run(plan, disk.NewSim(cfg.Disk, true), inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}

	first := runChaosScenario(t, plan, inputs, cfg, false)
	if first.failover == 0 {
		t.Fatal("no replica failovers recorded; the scenario exercised nothing")
	}
	for name, want := range ref.Outputs {
		if d := tensor.MaxAbsDiff(first.outputs[name], want); d != 0 {
			t.Fatalf("output %q differs from the fault-free run by %g", name, d)
		}
	}

	second := runChaosScenario(t, plan, inputs, cfg, false)
	for name, want := range first.outputs {
		if d := tensor.MaxAbsDiff(second.outputs[name], want); d != 0 {
			t.Fatalf("re-run output %q differs by %g; scenario is not deterministic", name, d)
		}
	}
	if second.front != first.front {
		t.Fatalf("front-door stats differ across identical runs:\n first: %+v\nsecond: %+v", first.front, second.front)
	}
	if second.faults != first.faults || second.healed != first.healed ||
		second.copied != first.copied || second.failover != first.failover {
		t.Fatalf("fault/repair tallies differ across identical runs:\n first: %+v\nsecond: %+v", first, second)
	}
}

// TestRingChaosPipelined runs the same scenario through the pipelined
// engine: concurrent sections reorder each shard's sub-operation stream,
// but the structural guarantees — bit-identical output, no restarts, no
// recompute, clean post-repair scrub — must hold regardless.
func TestRingChaosPipelined(t *testing.T) {
	plan, inputs, cfg := fourIndexPlan(t)
	ref, err := exec.Run(plan, disk.NewSim(cfg.Disk, true), inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := runChaosScenario(t, plan, inputs, cfg, true)
	for name, want := range ref.Outputs {
		if d := tensor.MaxAbsDiff(out.outputs[name], want); d != 0 {
			t.Fatalf("pipelined output %q differs from the fault-free run by %g", name, d)
		}
	}
}
