package fault_test

// Chaos suite: property-style fault-injection runs across seeds and both
// engines, checking the whole resilience stack end to end — retries
// absorb transient schedules, recovery absorbs persistent windows, the
// result is bit-identical to the fault-free run, and the static verifier
// stays clean on the plan and on every resume point recovery used. CI
// runs these under the race detector (the chaos job selects TestChaos).

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/tiling"
	"repro/internal/verify"
)

// chaosPlan builds the fused two-index transform with partial tiles — a
// small checkpointable plan cheap enough to sweep seeds under -race.
func chaosPlan(t *testing.T) (*codegen.Plan, map[string]*tensor.Tensor, machine.Config) {
	t.Helper()
	cfg := machine.Small(4 << 10)
	prog := loops.TwoIndexFused(12, 16)
	tree, err := tiling.Tile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := nlp.Build(m)
	x := p.Encode(map[string]int64{"i": 3, "j": 4, "m": 5, "n": 6}, nil)
	plan, err := codegen.Generate(p, x)
	if err != nil {
		t.Fatal(err)
	}
	inputs := expr.RandomInputs(expr.TwoIndexTransform(12, 16), 9)
	return plan, inputs, cfg
}

// TestAsyncFaultsSurfaceAtAwait runs the pipelined schedule over injected
// faults, with no retry policy to absorb them: a transient fault and a
// persistent one each fail the run fast, at the faulted operation itself
// — typed, classified and attributed to array and plan position — and no
// later unit starts.
func TestAsyncFaultsSurfaceAtAwait(t *testing.T) {
	plan, inputs, cfg := chaosPlan(t)
	// Inputs are loaded behind the injector's back, so every operation it
	// sees is one the plan's steps made.
	staged := func() *disk.Sim {
		sim := disk.NewSim(cfg.Disk, true)
		for _, da := range plan.DiskArrays {
			in, ok := inputs[da.Name]
			if !ok {
				continue
			}
			if _, err := sim.Create(da.Name, da.Dims); err != nil {
				t.Fatal(err)
			}
			if err := sim.LoadArray(da.Name, in.Data()); err != nil {
				t.Fatal(err)
			}
		}
		return sim
	}
	opt := exec.Options{Pipeline: true, OpenInputs: true}
	clean := fault.Wrap(staged(), fault.Config{})
	if _, err := exec.Run(plan, clean, nil, opt); err != nil {
		t.Fatal(err)
	}
	total := clean.Counts().Ops
	for _, tc := range []struct {
		name      string
		cfg       fault.Config
		transient bool
		cause     error
	}{
		{"transient", fault.Config{Seed: 1, Rate: 1, MaxConsecutive: 1}, true, fault.ErrInjected},
		{"persistent", fault.Config{Seed: 1, PersistentAfter: total / 2}, false, fault.ErrPersistent},
	} {
		inj := fault.Wrap(staged(), tc.cfg)
		_, err := exec.Run(plan, inj, nil, opt)
		var ioe *disk.IOError
		if !errors.As(err, &ioe) || ioe.Transient() != tc.transient || !errors.Is(err, tc.cause) {
			t.Fatalf("%s: fault not typed and classified: %v", tc.name, err)
		}
		var re *exec.RunError
		if !errors.As(err, &re) || !re.Staged {
			t.Fatalf("%s: missing RunError restart state: %v", tc.name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "exec: ") || !strings.Contains(msg, strconv.Quote(ioe.Array)) || !strings.Contains(msg, " at ") {
			t.Fatalf("%s: fault lacks array+position attribution: %q", tc.name, msg)
		}
		if n := inj.Counts().Ops; n >= total {
			t.Fatalf("%s: the run made %d of a clean run's %d operations: it went on past the failing unit's barrier", tc.name, n, total)
		}
	}
}

// TestChaosTransientBitIdentical sweeps fault schedules over both
// engines: whatever mix of transient read/write faults, torn writes, and
// latency spikes a seed produces, retries must absorb it and the outputs
// must match the fault-free run bit for bit.
func TestChaosTransientBitIdentical(t *testing.T) {
	plan, inputs, cfg := chaosPlan(t)
	if rep := verify.Check(plan); !rep.OK() {
		t.Fatalf("chaos plan does not verify:\n%s", rep)
	}
	ref, err := exec.Run(plan, disk.NewSim(cfg.Disk, true), inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for seed := uint64(1); seed <= 4; seed++ {
		for _, pipeline := range []bool{false, true} {
			inj := fault.Wrap(disk.NewSim(cfg.Disk, true), fault.Config{
				Seed:           seed,
				Rate:           0.08,
				TornRate:       0.05,
				LatencyRate:    0.03,
				LatencySeconds: 0.005,
			})
			// Both schedules issue operations in program order, so
			// MaxConsecutive caps the faults any one op's retries can draw
			// — plain Run has no restart net, so absorption must be
			// guaranteed, not probabilistic.
			res, err := exec.Run(plan, inj, inputs, exec.Options{
				Pipeline: pipeline,
				Retry:    disk.DefaultRetryPolicy(),
			})
			if err != nil {
				t.Fatalf("seed %d pipeline=%v: %v", seed, pipeline, err)
			}
			c := inj.Counts()
			if c.Faults() == 0 {
				t.Fatalf("seed %d: schedule injected nothing over %d ops", seed, c.Ops)
			}
			if res.Retry.FaultsSeen != c.Faults() || res.Retry.Retries < c.Faults() {
				t.Fatalf("seed %d pipeline=%v: retry tallies %+v vs injector %s",
					seed, pipeline, res.Retry, c)
			}
			for name, want := range ref.Outputs {
				if d := tensor.MaxAbsDiff(res.Outputs[name], want); d != 0 {
					t.Fatalf("seed %d pipeline=%v: output %q off by %g", seed, pipeline, name, d)
				}
			}
		}
	}
}

// TestChaosRecoveryBitIdentical layers persistent-fault windows on top of
// a transient schedule: RunResilient must restart through every window,
// report resume points the verifier accepts (S4), and still produce the
// fault-free outputs.
func TestChaosRecoveryBitIdentical(t *testing.T) {
	plan, inputs, cfg := chaosPlan(t)
	ref, err := exec.Run(plan, disk.NewSim(cfg.Disk, true), inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for seed := uint64(1); seed <= 3; seed++ {
		for _, pipeline := range []bool{false, true} {
			inj := fault.Wrap(disk.NewSim(cfg.Disk, true), fault.Config{
				Seed:            seed,
				Rate:            0.05,
				PersistentAfter: 25 + int64(seed)*17,
				PersistentOps:   2,
			})
			res, rep, err := exec.RunResilient(nil, plan, inj, inputs, exec.Options{
				Pipeline: pipeline,
				Retry:    disk.DefaultRetryPolicy(),
			}, exec.RecoveryOptions{MaxRestarts: 6})
			if err != nil {
				t.Fatalf("seed %d pipeline=%v: %v\nreport: %s", seed, pipeline, err, rep)
			}
			if rep.Restarts == 0 {
				t.Fatalf("seed %d pipeline=%v: persistent window never forced a restart", seed, pipeline)
			}
			if rep.FaultsSeen != inj.Counts().Faults() {
				t.Fatalf("seed %d pipeline=%v: report %s vs injector %s", seed, pipeline, rep, inj.Counts())
			}
			for _, cp := range rep.ResumePoints {
				cp := cp
				if vrep := verify.CheckOpts(plan, verify.Options{Resume: &cp}); !vrep.OK() {
					t.Fatalf("seed %d pipeline=%v: resume point %+v fails verification:\n%s",
						seed, pipeline, cp, vrep)
				}
			}
			for name, want := range ref.Outputs {
				if d := tensor.MaxAbsDiff(res.Outputs[name], want); d != 0 {
					t.Fatalf("seed %d pipeline=%v: output %q off by %g", seed, pipeline, name, d)
				}
			}
		}
	}
}

// TestChaosFourIndexAcceptance is the paper workload under chaos: the
// four-index transform with faults on reads and writes, both engines,
// bit-identical output and a clean verify report — the PR's headline
// acceptance scenario at chaos-suite scale.
func TestChaosFourIndexAcceptance(t *testing.T) {
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
	if rep := verify.Check(plan); !rep.OK() {
		t.Fatalf("four-index plan does not verify:\n%s", rep)
	}
	inputs := expr.RandomInputs(expr.FourIndexTransform(n, v), 7)
	ref, err := exec.Run(plan, disk.NewSim(cfg.Disk, true), inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pipeline := range []bool{false, true} {
		inj := fault.Wrap(disk.NewSim(cfg.Disk, true), fault.Config{Seed: 11, Rate: 0.04, TornRate: 0.04})
		res, rep, err := exec.RunResilient(nil, plan, inj, inputs, exec.Options{
			Pipeline: pipeline,
			Retry:    disk.DefaultRetryPolicy(),
		}, exec.RecoveryOptions{})
		if err != nil {
			t.Fatalf("pipeline=%v: %v\nreport: %s", pipeline, err, rep)
		}
		if inj.Counts().Faults() == 0 {
			t.Fatal("no faults injected")
		}
		for name, want := range ref.Outputs {
			if d := tensor.MaxAbsDiff(res.Outputs[name], want); d != 0 {
				t.Fatalf("pipeline=%v: output %q off by %g", pipeline, name, d)
			}
		}
	}
}
