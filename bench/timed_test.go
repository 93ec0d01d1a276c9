package main

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// smallPlan is the quick thin-write plan with seeded inputs.
func smallPlan(t *testing.T) (*codegen.Plan, *fileCase, map[string]*tensor.Tensor) {
	t.Helper()
	c := thinWriteCase(60, 2, map[string]int64{"i": 20, "j": 60, "k": 2})
	prog, err := frontEnd(nil, c.name, c.spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pinnedPlan(nil, prog, c.cfg, *c.pin, true)
	if err != nil {
		t.Fatal(err)
	}
	c.inputs, c.ref = c.generate(rand.New(rand.NewSource(7)))
	inputs := map[string]*tensor.Tensor{}
	for _, in := range c.inputs {
		dims := make([]int, len(in.dims))
		for i, d := range in.dims {
			dims[i] = int(d)
		}
		tt := tensor.New(dims...)
		copy(tt.Data(), in.data)
		inputs[in.name] = tt
	}
	return s.plan, c, inputs
}

// The timing wrapper must not change what a run does: same statistics,
// same output bytes, same engine path.
func TestTimedBackendIsTransparent(t *testing.T) {
	plan, c, inputs := smallPlan(t)
	for _, pipeline := range []bool{false, true} {
		opt := exec.Options{Workers: 1, Pipeline: pipeline}
		bare := disk.NewSim(c.cfg.Disk, true)
		want, err := exec.Run(plan, bare, inputs, opt)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		wrapped := newTimedBackend(disk.NewSim(c.cfg.Disk, true), tr)
		got, err := exec.Run(plan, wrapped, inputs, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Modelled times accumulate concurrently under the pipelined engine,
		// so they agree to rounding; operations and bytes agree exactly.
		if !sameTraffic(got.Stats, want.Stats) || math.Abs(got.Stats.Time()-want.Stats.Time()) > 1e-9 {
			t.Errorf("pipeline=%v: stats through the wrapper %v, without %v", pipeline, got.Stats, want.Stats)
		}
		if !equalFloats(got.Outputs[c.output].Data(), want.Outputs[c.output].Data()) {
			t.Errorf("pipeline=%v: output bytes differ through the wrapper", pipeline)
		}
		if err := compareOutput(c.output, got.Outputs[c.output].Data(), c.ref); err != nil {
			t.Errorf("pipeline=%v: %v", pipeline, err)
		}
		if pipeline {
			if got.Pipeline == nil || want.Pipeline == nil {
				t.Fatal("pipelined run reported no pipeline statistics")
			}
			g, w := got.Pipeline, want.Pipeline
			if g.PrefetchedReads != w.PrefetchedReads || g.WriteBehindWrites != w.WriteBehindWrites || g.Barriers != w.Barriers {
				t.Errorf("engine path differs: through the wrapper %+v, without %+v", *g, *w)
			}
		}
		// Every front-door operation was seen and timed.
		ops := got.Stats.ReadOps + got.Stats.WriteOps
		// The output fetch and input staging also pass through the wrapper.
		if seen := wrapped.reads.Load() + wrapped.writes.Load(); seen < ops {
			t.Errorf("pipeline=%v: wrapper saw %d section operations, stats count %d", pipeline, seen, ops)
		}
		if wrapped.busyNs() <= 0 {
			t.Errorf("pipeline=%v: wrapper recorded no time", pipeline)
		}
		if len(tr.spans) == 0 {
			t.Errorf("pipeline=%v: wrapper recorded no spans", pipeline)
		}
	}
}

// plainBackend hides every optional capability of the backend it wraps.
type plainBackend struct{ disk.Backend }

func TestTimedBackendForwardsCapabilities(t *testing.T) {
	d := thinWriteCase(60, 2, nil).cfg.Disk
	sim := disk.NewSim(d, false)
	tb := newTimedBackend(sim, newTracer())
	var be disk.Backend = tb
	if ab, ok := be.(disk.AsyncBackend); !ok || !ab.AsyncCapable() {
		t.Error("wrapper over Sim does not report the asynchronous capability")
	}
	if newTimedBackend(plainBackend{sim}, newTracer()).AsyncCapable() {
		t.Error("wrapper claims a capability its inner backend lacks")
	}
	if ib, ok := be.(disk.InnerBackend); !ok || ib.Inner() != disk.Backend(sim) {
		t.Error("wrapper does not expose its inner backend")
	}
	if _, ok := be.(disk.Syncer); !ok {
		t.Error("wrapper does not implement disk.Syncer")
	}
	// AttachMetrics reaches the Sim through the wrapper.
	reg := obs.NewRegistry()
	if !disk.AttachMetrics(be, reg) {
		t.Fatal("AttachMetrics refused the wrapper")
	}
	a, err := be.Create("X", []int64{4})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteSection([]int64{0}, []int64{4}, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(disk.MetricWriteOps).Value(); got != 1 {
		t.Errorf("registry saw %d writes through the wrapper, want 1", got)
	}
	if !disk.IsAsync(a) {
		t.Error("wrapped array lost the asynchronous contract")
	}
}

func TestSelfTimeIsSpanMinusChildCover(t *testing.T) {
	// A 100 ns parent with two overlapping children covering [10,40) and
	// [30,60), and one grandchild: cover is a union, not a sum.
	spans := []span{
		{ID: 1, Parent: 0, Name: "exec.Run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "disk.ReadSection", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "disk.ReadSection", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "inner", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 25, 3: 30, 4: 5} {
		if got := int64(self[id]); got != want {
			t.Errorf("span %d: self time %d ns, want %d", id, got, want)
		}
	}
	by := spansByName(spans)
	if r := by["disk.ReadSection"]; len(r.Durs) != 2 || int64(r.Total) != 60 || int64(r.Self) != 55 {
		t.Errorf("disk.ReadSection: %+v", *r)
	}
}
