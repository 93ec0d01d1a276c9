package verify

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/tensor"
)

// This file holds exec to the schedule oracle: the sections the engine
// issues must be the ones the linear-scan walk of schedule_ref_test.go
// resolves, in the same order.

// oracleSections walks a plan with the linear-scan oracle and returns
// every section it resolves, in program order. An init pass becomes the
// tile writes that zero-fill it: per array dim one tile of the dim's
// index, cut at the array boundary, the last dim fastest.
func oracleSections(plan *codegen.Plan) []section {
	c := newChecker(plan, Options{})
	s := &refScheduler{c: c, base: map[string]int64{}, state: map[string]*refArraySched{}}
	for name, da := range c.arrays {
		as := &refArraySched{da: da}
		if da.Kind == loops.Input {
			as.covered.full = true
		}
		s.state[name] = as
	}
	s.walk(plan.Body)
	type event struct {
		step  int
		array string
		read  bool
		box   sbox
		init  bool
	}
	var evs []event
	for name, as := range s.state {
		for _, r := range as.reads {
			evs = append(evs, event{r.step, name, true, r.box, false})
		}
		for _, w := range as.writes {
			evs = append(evs, event{w.step, name, false, w.box, w.buf == nil})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].step < evs[j].step })
	var out []section
	for _, ev := range evs {
		if !ev.init {
			shape := make([]int64, len(ev.box.lo))
			for i := range shape {
				shape[i] = ev.box.hi[i] - ev.box.lo[i]
			}
			out = append(out, section{ev.array, ev.read, ev.box.lo, shape})
			continue
		}
		da := c.arrays[ev.array]
		tiles := make([]int64, len(da.Dims))
		for i, idx := range da.Indices {
			tiles[i] = plan.Tiles[idx]
		}
		lo := make([]int64, len(da.Dims))
		for {
			shape := make([]int64, len(lo))
			for i := range lo {
				shape[i] = min(tiles[i], da.Dims[i]-lo[i])
			}
			out = append(out, section{ev.array, false, slices.Clone(lo), shape})
			d := len(lo) - 1
			for ; d >= 0; d-- {
				if lo[d] += tiles[d]; lo[d] < da.Dims[d] {
					break
				}
				lo[d] = 0
			}
			if d < 0 {
				break
			}
		}
	}
	return out
}

// section is one section operation: array, direction, lo and shape.
type section struct {
	array     string
	read      bool
	lo, shape []int64
}

func (s section) String() string {
	return fmt.Sprintf("%s read=%v lo=%v shape=%v", s.array, s.read, s.lo, s.shape)
}

func (s section) equal(o section) bool {
	return s.array == o.array && s.read == o.read && slices.Equal(s.lo, o.lo) && slices.Equal(s.shape, o.shape)
}

// sectionLog is a pass-through backend that records every successful
// section operation in issue order. ResetStats clears the log, so input
// staging is left out as in exec's Result.Stats.
type sectionLog struct {
	disk.Backend
	mu  sync.Mutex
	ops []section
}

func (l *sectionLog) ResetStats() {
	l.Backend.ResetStats()
	l.mu.Lock()
	l.ops = nil
	l.mu.Unlock()
}

func (l *sectionLog) Create(name string, dims []int64) (disk.Array, error) {
	a, err := l.Backend.Create(name, dims)
	if err != nil {
		return nil, err
	}
	return loggedArray{a, l}, nil
}

func (l *sectionLog) Open(name string) (disk.Array, error) {
	a, err := l.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	return loggedArray{a, l}, nil
}

type loggedArray struct {
	disk.Array
	log *sectionLog
}

func (a loggedArray) ReadSection(lo, shape []int64, buf []float64) error {
	return a.record(a.Array.ReadSection(lo, shape, buf), true, lo, shape)
}

func (a loggedArray) WriteSection(lo, shape []int64, buf []float64) error {
	return a.record(a.Array.WriteSection(lo, shape, buf), false, lo, shape)
}

func (a loggedArray) record(err error, read bool, lo, shape []int64) error {
	if err == nil {
		a.log.mu.Lock()
		a.log.ops = append(a.log.ops, section{a.Name(), read, slices.Clone(lo), slices.Clone(shape)})
		a.log.mu.Unlock()
	}
	return err
}

// TestExecIssuesOracleSections runs every verify-clean plan of
// TestScheduleIndexMatchesLinearScan's random generator through exec —
// serial and pipelined, as a data run and as a dry run — and requires the
// engine to issue exactly the sections the linear-scan oracle resolves,
// in the same order, each init pass as its tile writes. Data runs write a
// buffer at the section it was bound at, dry runs at the walker's current
// one; both must be the oracle's. The backend is a cost-only Sim: a data
// run still binds, fills and writes its buffer tensors, and checksumming
// stored data would only slow the test.
func TestExecIssuesOracleSections(t *testing.T) {
	progs := []struct {
		prog   *loops.Program
		cfg    machine.Config
		trials int
	}{
		{loops.TwoIndexFused(6, 8), machine.Small(1 << 20), 300},
		{loops.FourIndexAbstract(6, 4), machine.Small(1 << 22), 300},
		{loops.FourIndexAbstract(13, 9), machine.Small(1 << 22), 100},
	}
	if testing.Short() {
		for i := range progs {
			progs[i].trials /= 5
		}
	}
	rng := rand.New(rand.NewSource(7))
	var plans, sections int
	for _, pc := range progs {
		p := buildProblem(t, pc.prog, pc.cfg)
		for trial := 0; trial < pc.trials; trial++ {
			plan := randomPlan(t, rng, p)
			if rep := Check(plan); !rep.OK() || rep.Truncated {
				continue
			}
			want := oracleSections(plan)
			inputs := map[string]*tensor.Tensor{}
			for _, da := range plan.DiskArrays {
				if da.Kind == loops.Input {
					dims := make([]int, len(da.Dims))
					for i, d := range da.Dims {
						dims[i] = int(d)
					}
					inputs[da.Name] = tensor.New(dims...)
				}
			}
			for _, opt := range []exec.Options{
				{NoFetch: true}, {NoFetch: true, Pipeline: true},
				{DryRun: true}, {DryRun: true, Pipeline: true},
			} {
				log := &sectionLog{Backend: disk.NewSim(pc.cfg.Disk, false)}
				in := inputs
				if opt.DryRun {
					in = nil
				}
				if _, err := exec.Run(plan, log, in, opt); err != nil {
					t.Fatalf("%s trial %d %+v: %v\nplan:\n%s", pc.prog.Name, trial, opt, err, plan)
				}
				log.Close()
				if !slices.EqualFunc(log.ops, want, section.equal) {
					i := 0
					for i < min(len(log.ops), len(want)) && log.ops[i].equal(want[i]) {
						i++
					}
					t.Fatalf("%s trial %d %+v: exec issues %d sections, the oracle %d; first difference at %d:\nexec   %s\noracle %s\nplan:\n%s",
						pc.prog.Name, trial, opt, len(log.ops), len(want), i, at(log.ops, i), at(want, i), plan)
				}
				sections += len(want)
			}
			plans++
		}
	}
	t.Logf("%d verify-clean plans, %d sections issued as the oracle resolves them", plans, sections)
	if plans == 0 {
		t.Fatal("the generator made no verify-clean plan")
	}
}

// at renders ops[i], or the end of the list.
func at(ops []section, i int) string {
	if i < len(ops) {
		return ops[i].String()
	}
	return "end of list"
}
