package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/tensor"
)

// walkerTraffic holds, per plan, the FNV-64a digest of every section
// operation its runs issue — array, direction, lo and shape, in issue
// order — and of each run's final disk.Stats, over the runs
// trafficDigest makes. Recorded from the walker that resolved loop bases
// through a string-keyed map and allocated each section afresh, before
// the plan was lowered to a step tree: the lowering must not move a
// single operation.
var walkerTraffic = map[string]uint64{
	"progen seed 0 sel 0": 0xfd019b6676582db7,
	"progen seed 0 sel 1": 0x12f647e3010de459,
	"progen seed 1 sel 0": 0xdff335ec49959d73,
	"progen seed 1 sel 1": 0x50dbddc6a129155d,
	"progen seed 2 sel 0": 0xf875e1231dd99017,
	"progen seed 2 sel 1": 0xb909b3d874a06731,
	"progen seed 3 sel 0": 0x94beef6210204a5f,
	"progen seed 3 sel 1": 0xfa52ee3d4fe1f61,
	"progen seed 4 sel 0": 0x6b316011c5192639,
	"progen seed 4 sel 1": 0x5d19e894e3ab8249,
	"progen seed 5 sel 0": 0x260c0890a9562fb7,
	"progen seed 5 sel 1": 0x81ed84b5600dbd1f,
	"progen seed 6 sel 0": 0x1c0997d95a12deb,
	"progen seed 6 sel 1": 0x5045153c4ddf00cd,
	"progen seed 7 sel 0": 0x9442b1b95c1df6ff,
	"progen seed 7 sel 1": 0x89fde9a5ada58e85,
	"paper dry run":       0x659d41f372fdb679,
	"edge rule":           0x8e97a37cb90de525,
}

// trafficDigest folds the section operations and final Stats of a plan's
// runs into d: serial and pipelined, in data mode (when inputs is non-nil)
// and as a dry run.
func trafficDigest(t *testing.T, d digest, plan *codegen.Plan, cfg machine.Config, inputs map[string]*tensor.Tensor) {
	t.Helper()
	for _, dry := range []bool{false, true} {
		if !dry && inputs == nil {
			continue
		}
		for _, pipe := range []bool{false, true} {
			rec := &opLog{Backend: disk.NewSim(cfg.Disk, !dry)}
			res, err := Run(plan, rec, inputs, Options{DryRun: dry, Pipeline: pipe})
			if err != nil {
				t.Fatalf("dry run %v, pipeline %v: %v", dry, pipe, err)
			}
			ops := rec.ops
			rec.Close()
			d.word(uint64(len(ops)))
			for _, op := range ops {
				d.str(op.array)
				if op.read {
					d.word(1)
				} else {
					d.word(0)
				}
				d.word(uint64(len(op.lo)))
				for i := range op.lo {
					d.word(uint64(op.lo[i]))
					d.word(uint64(op.shape[i]))
				}
			}
			s := res.Stats
			for _, n := range []int64{s.ReadOps, s.WriteOps, s.BytesRead, s.BytesWritten} {
				d.word(uint64(n))
			}
			d.word(math.Float64bits(s.ReadTime))
			d.word(math.Float64bits(s.WriteTime))
		}
	}
}

// edgeRulePlan nests a loop over i in a loop over i and reads A[i,j]
// through a tile buffer inside the inner loop, after it closes, and at the
// top level; j has no enclosing loop anywhere. An index with no enclosing
// loop has tile base 0, and so does i once the inner loop has closed, even
// though the outer loop over i is still open.
func edgeRulePlan() (*codegen.Plan, machine.Config) {
	cfg := machine.Small(1 << 20)
	ranges := map[string]int64{"i": 10, "j": 6}
	tileA := &codegen.Buffer{Name: "bA", Array: "A", Dims: []placement.BufDim{
		{Index: "i", Class: placement.ExtTile}, {Index: "j", Class: placement.ExtTile}}}
	tileB := &codegen.Buffer{Name: "bB", Array: "B", Dims: []placement.BufDim{{Index: "i", Class: placement.ExtTile}}}
	read := &codegen.IO{Read: true, Array: "A", Buffer: tileA}
	plan := &codegen.Plan{
		Prog:  loops.NewProgram("edge", ranges),
		Cfg:   cfg,
		Tiles: map[string]int64{"i": 4, "j": 4},
		Body: []codegen.Node{
			read,
			&codegen.Loop{Index: "i", Range: 10, Tile: 4, Body: []codegen.Node{
				&codegen.Loop{Index: "i", Range: 10, Tile: 3, Body: []codegen.Node{read}},
				read,
				&codegen.IO{Array: "B", Buffer: tileB},
			}},
		},
		Buffers: []*codegen.Buffer{tileA, tileB},
		DiskArrays: []codegen.DiskArray{
			{Name: "A", Indices: []string{"i", "j"}, Dims: []int64{10, 6}, Kind: loops.Input},
			{Name: "B", Indices: []string{"i"}, Dims: []int64{10}, Kind: loops.Output},
		},
	}
	return plan, cfg
}

// TestWalkerTrafficGolden pins the section operations the walker issues,
// in order, on the 16 generated plans of
// TestPipelineMatchesSerialAllPlacements (both schedules, data and dry
// run), the paper-scale dry run and edgeRulePlan, to digests recorded
// before the plan was lowered to a step tree.
func TestWalkerTrafficGolden(t *testing.T) {
	check := func(name string, plan *codegen.Plan, cfg machine.Config, inputs map[string]*tensor.Tensor) {
		d := newDigest()
		trafficDigest(t, d, plan, cfg, inputs)
		if got, want := d.h.Sum64(), walkerTraffic[name]; got != want {
			t.Errorf("%q: traffic digest %#x, recorded %#x", name, got, want)
		}
	}
	for _, tc := range progenCases(t) {
		check(tc.name, tc.plan, tc.cfg, tc.inputs)
	}
	plan, cfg := paperDryRunPlan(t)
	check("paper dry run", plan, cfg, nil)
	plan, cfg = edgeRulePlan()
	check("edge rule", plan, cfg, nil)
}

// sectionOps runs plan against a recording Sim and renders every section
// operation it issues: array, direction, lo and shape, in order.
func sectionOps(t *testing.T, plan *codegen.Plan, cfg machine.Config, inputs map[string]*tensor.Tensor, opt Options) []string {
	t.Helper()
	rec := &opLog{Backend: disk.NewSim(cfg.Disk, !opt.DryRun)}
	defer rec.Close()
	if _, err := Run(plan, rec, inputs, opt); err != nil {
		t.Fatalf("%+v: %v", opt, err)
	}
	var ops []string
	for _, op := range rec.ops {
		ops = append(ops, fmt.Sprintf("%s read=%v lo=%v shape=%v", op.array, op.read, op.lo, op.shape))
	}
	return ops
}

// opLog is a pass-through backend that logs every successful section
// operation, in completion order, for the tests that pin the walker's
// traffic. ResetStats clears the log, so it leaves out input staging as
// Result.Stats does.
type opLog struct {
	disk.Backend
	mu  sync.Mutex
	ops []sectionOp
}

// sectionOp is one logged operation, its section copied.
type sectionOp struct {
	array     string
	read      bool
	lo, shape []int64
}

func (l *opLog) ResetStats() {
	l.Backend.ResetStats()
	l.mu.Lock()
	l.ops = nil
	l.mu.Unlock()
}

func (l *opLog) Create(name string, dims []int64) (disk.Array, error) {
	a, err := l.Backend.Create(name, dims)
	if err != nil {
		return nil, err
	}
	return loggedArray{a, l}, nil
}

func (l *opLog) Open(name string) (disk.Array, error) {
	a, err := l.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	return loggedArray{a, l}, nil
}

type loggedArray struct {
	disk.Array
	log *opLog
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
		a.log.ops = append(a.log.ops, sectionOp{a.Name(), read, slices.Clone(lo), slices.Clone(shape)})
		a.log.mu.Unlock()
	}
	return err
}

// TestDryRunIssuesDataRunSections requires every kind of dry run — bare,
// traced and pipelined — to issue the data run's section operations. A
// bare dry run drops the I/O-free loops a data run enters; edgeRulePlan
// with an inner loop over i that only zero-fills bA is the case where
// that once moved a section: the reads after the dropped loop started
// at the outer loop's base instead of 0.
func TestDryRunIssuesDataRunSections(t *testing.T) {
	cases := progenCases(t)
	plan, cfg := edgeRulePlan()
	outer := plan.Body[1].(*codegen.Loop)
	outer.Body[0].(*codegen.Loop).Body = []codegen.Node{&codegen.ZeroBuf{Buffer: plan.Buffers[0]}}
	outer.Body = outer.Body[:2]
	plan.Buffers, plan.DiskArrays = plan.Buffers[:1], plan.DiskArrays[:1]
	cases = append(cases, schedCase{name: "edge rule, zero-filling inner loop", plan: plan, cfg: cfg, inputs: map[string]*tensor.Tensor{"A": tensor.New(10, 6)}})
	for _, tc := range cases {
		want := sectionOps(t, tc.plan, tc.cfg, tc.inputs, Options{NoFetch: true})
		for _, dry := range []struct {
			name string
			opt  Options
		}{
			{"bare", Options{DryRun: true}},
			{"traced", Options{DryRun: true, Tracer: obs.NewTracer()}},
			{"pipelined", Options{DryRun: true, Pipeline: true}},
		} {
			got := sectionOps(t, tc.plan, tc.cfg, nil, dry.opt)
			if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
				t.Errorf("%s: %s dry run issues\n%s\ndata run issues\n%s", tc.name, dry.name, g, w)
			}
		}
	}
}

// TestInitPassUnknownArray checks that the error of an init pass over an
// array the plan does not declare says so once.
func TestInitPassUnknownArray(t *testing.T) {
	plan, cfg := edgeRulePlan()
	plan.Body = []codegen.Node{&codegen.InitPass{Array: "Z"}}
	be := disk.NewSim(cfg.Disk, false)
	defer be.Close()
	_, err := Run(plan, be, nil, Options{DryRun: true})
	if want := `exec: init pass over unknown disk array "Z"`; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
}
