package main

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/loops"
	"repro/internal/machine"
)

// stackDryRun is the workload where engine bookkeeping and the backend
// decorators do all the work: no solver, no compute, no data. One pinned
// paper-scale plan is dry-run four ways — each engine on a bare
// cost-only Sim, each engine through the full decorator stack — and the
// front door must see identical traffic on all four.
type stackDryRun struct {
	n, v int64
	cfg  machine.Config
	pin  pin
	seed int64
}

func (w *stackDryRun) name() string { return "stack-dryrun" }

func newStackDryRun(quick bool) *stackDryRun {
	cfg := machine.OSCItanium2()
	labels := map[string]string{
		"A": "read leaf", "B": "write above sT",
		"C1": "read above aT", "C2": "read above aT", "C3": "read above aT", "C4": "read above aT",
		"T1": "disk: write above sT, read above sT (read required)", "T2": "in memory", "T3": "in memory",
	}
	if quick {
		// ~500 section operations.
		cfg.MemoryLimit = 2 * gb
		return &stackDryRun{n: 140, v: 120, cfg: cfg, pin: pin{labels: labels, tiles: map[string]int64{
			"a": 40, "b": 60, "c": 60, "d": 40, "p": 140, "q": 70, "r": 14, "s": 70,
		}}}
	}
	// The paper's larger size at a quarter of a gigabyte; tiles taken from
	// a DLM solution and fixed here: 13 594 section operations.
	cfg.MemoryLimit = gb / 4
	return &stackDryRun{n: 190, v: 180, cfg: cfg, pin: pin{labels: labels, tiles: map[string]int64{
		"a": 20, "b": 36, "c": 60, "d": 15, "p": 190, "q": 38, "r": 5, "s": 95,
	}}}
}

// setUp builds and verifies the pinned plan (verifying a paper-scale
// plan costs about as much as a pass, and the plan never changes, so
// passes rebuild it unverified) and warms up with one bare dry run.
func (w *stackDryRun) setUp(seed int64) error {
	w.seed = seed
	s, err := pinnedPlan(nil, loops.FourIndexAbstract(w.n, w.v), w.cfg, w.pin, true)
	if err != nil {
		return err
	}
	_, err = w.dryRun(nil, s, stackParts{}, false)
	return err
}

func (w *stackDryRun) tearDown() {}

func (w *stackDryRun) dryRun(tr *tracer, s *synthOut, parts stackParts, pipeline bool) (*execOut, error) {
	be, opt, err := buildStack(parts, w.cfg.Disk, w.seed)
	if err != nil {
		return nil, err
	}
	opt.Pipeline = pipeline
	return execute(tr, s.plan, be, opt)
}

// stackLeg is one of the pass's four executions.
type stackLeg struct {
	name     string
	parts    stackParts
	pipeline bool
}

var stackLegs = []stackLeg{
	{"sim-serial", stackParts{}, false},
	{"sim-pipeline", stackParts{}, true},
	{"stack-serial", fullStack, false},
	{"stack-pipeline", fullStack, true},
}

func (w *stackDryRun) pass(tr *tracer, n int) *passRec {
	p := newPassRec()
	legs := map[string]*execOut{}
	var first *disk.Stats
	var s *synthOut
	for i, leg := range stackLegs {
		tr.setOp(i + 1)
		// Every operation goes from the program to the executed plan.
		var x *execOut
		var prog *loops.Program
		err := p.frontEndTimed(func() error {
			prog = loops.FourIndexAbstract(w.n, w.v)
			return nil
		})
		if err == nil {
			s, err = pinnedPlan(tr, prog, w.cfg, w.pin, false)
		}
		if err == nil {
			p.addSynth(s)
			err = checkPlan(s.plan, w.cfg.MemoryLimit)
		}
		if err == nil {
			x, err = w.dryRun(tr, s, leg.parts, leg.pipeline)
		}
		if err == nil {
			p.addExec(x, s.plan.Predicted)
			if first != nil && !sameTraffic(*first, x.stats) {
				err = fmt.Errorf("front door saw %v, %s saw %v", x.stats, stackLegs[0].name, *first)
			}
		}
		if !p.op(leg.name, err) {
			continue
		}
		legs[leg.name] = x
		if first == nil {
			// One leg's traffic: all four must match it.
			first = &x.stats
			p.addTraffic(x.stats)
		}
	}
	if s == nil {
		return p
	}
	p.finish([]*synthOut{s})
	if tr != nil {
		w.ledger(p, tr, s, legs)
	}
	return p
}
