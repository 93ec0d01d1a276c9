package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/trace"
)

// execOut is what the benchmark keeps of one execution.
type execOut struct {
	stats disk.Stats
	pipe  *exec.PipelineStats
	// wall covers exec.Run and the backend's Close.
	wall time.Duration
	// tb is the timing wrapper's account (traced passes only).
	tb *timedBackend
}

// execute runs a plan and closes the backend, timing both. Traced, the
// backend is seen through the timing wrapper and exec.Run gets a span.
// Every run is single-worker and leaves outputs on the backend: the
// caller reads them back, untimed, to check them.
func execute(tr *tracer, plan *codegen.Plan, be disk.Backend, opt exec.Options) (*execOut, error) {
	opt.Workers = 1
	opt.NoFetch = true
	out := &execOut{}
	if tr != nil {
		out.tb = newTimedBackend(be, tr)
		be = out.tb
	}
	start := time.Now()
	id := tr.begin("exec.Run")
	if out.tb != nil {
		out.tb.parent = id
	}
	res, err := exec.Run(plan, be, nil, opt)
	tr.end(id)
	if out.tb != nil {
		out.tb.parent = tr.current()
	}
	cerr := be.Close()
	out.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, fmt.Errorf("close backend: %w", cerr)
	}
	out.stats, out.pipe = res.Stats, res.Pipeline
	return out, nil
}

// fitRatio compares modelled I/O seconds as executed with the plan's
// prediction — the paper's Table 3 claim — as a ratio ≥ 1, whichever
// side is larger on top, so 1 is exact agreement and worse is higher.
func fitRatio(measured, predicted float64) float64 {
	if measured <= 0 || predicted <= 0 {
		return math.Inf(1)
	}
	return max(measured/predicted, predicted/measured)
}

// sameTraffic reports whether two executions of one plan moved the same
// operations and bytes through the front door.
func sameTraffic(a, b disk.Stats) bool {
	return a.ReadOps == b.ReadOps && a.WriteOps == b.WriteOps &&
		a.BytesRead == b.BytesRead && a.BytesWritten == b.BytesWritten
}

// checkPlan applies the per-plan checks every workload shares.
func checkPlan(plan *codegen.Plan, limit int64) error {
	if got := plan.MemoryBytes(); got > limit {
		return fmt.Errorf("plan needs %d bytes of buffers, machine limit is %d", got, limit)
	}
	return nil
}

// fileInput is one input array of a file workload.
type fileInput struct {
	name string
	dims []int64
	data []float64
}

// stageInputs writes the inputs into a new FileStore under dir through
// Create and WriteSection, and closes it: the master copy every
// operation's fresh store starts from.
func stageInputs(dir string, d machine.Disk, inputs []fileInput) error {
	fs, err := disk.NewFileStore(dir, d)
	if err != nil {
		return err
	}
	for _, in := range inputs {
		a, err := fs.Create(in.name, in.dims)
		if err == nil {
			err = a.WriteSection(make([]int64, len(in.dims)), in.dims, in.data)
		}
		if err != nil {
			fs.Close()
			return fmt.Errorf("stage %s: %w", in.name, err)
		}
	}
	return fs.Close()
}

// freshStore copies the staged master's files into dir and opens a
// FileStore on them. Copying files is an order of magnitude cheaper than
// staging through WriteSection, and leaves more of a run for measuring.
func freshStore(master, dir string, d machine.Disk) (*disk.FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(master)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(master, e.Name()))
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			return nil, err
		}
	}
	return disk.NewFileStore(dir, d)
}

// readBack reopens the store under dir and reads a whole array: the
// bytes an execution left on the backend after Close.
func readBack(dir string, d machine.Disk, name string) ([]float64, error) {
	fs, err := disk.NewFileStore(dir, d)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	a, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	dims := a.Dims()
	n := int64(1)
	for _, x := range dims {
		n *= x
	}
	buf := make([]float64, n)
	if err := a.ReadSection(make([]int64, len(dims)), dims, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// stackParts selects the decorators of a dry-run backend stack over
// cost-only simulator shards.
type stackParts struct {
	shards, replicas int  // 0 shards: a bare Sim instead of a ring
	health           bool // ring health plane
	faults           bool // zero-rate fault injector on every shard (or around the Sim)
	recorder         bool // trace.Recorder in front
	obs              bool // registry + tracer + ring-sink log attached
}

// fullStack is the whole decorator stack the stack-dryrun workload pays for.
var fullStack = stackParts{shards: 4, replicas: 2, health: true, faults: true, recorder: true, obs: true}

// buildStack assembles the backend and the exec options that go with it.
func buildStack(p stackParts, d machine.Disk, seed int64) (disk.Backend, exec.Options, error) {
	opt := exec.Options{DryRun: true}
	var reg *obs.Registry
	var log *obs.Log
	if p.obs {
		reg = obs.NewRegistry()
		log = obs.NewLog(obs.LevelDebug, obs.NewRing(4096))
		opt.Metrics, opt.Tracer, opt.Log = reg, obs.NewTracer(), log
	}
	var fcfg *fault.Config
	if p.faults {
		fcfg = &fault.Config{Seed: uint64(seed)}
	}
	var be disk.Backend
	if p.shards > 0 {
		// The placement hash is fixed: which shard a block lands on changes
		// the ring's work per operation, and that must not vary with -seed.
		ropt := ring.Options{Shards: p.shards, Replicas: p.replicas, Seed: 1, Disk: d, Faults: fcfg, Metrics: reg, Log: log}
		if p.health {
			ropt.Health = &health.Config{}
		}
		store, err := ring.New(ropt)
		if err != nil {
			return nil, opt, err
		}
		be = store
	} else {
		be = disk.NewSim(d, false)
		if fcfg != nil {
			be = fault.Wrap(be, *fcfg)
		}
		if reg != nil {
			disk.AttachMetrics(be, reg)
		}
	}
	if p.recorder {
		be = trace.NewWithDisk(be, d)
	}
	return be, opt, nil
}
