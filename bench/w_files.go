package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/tce"
)

// fileCase is one program a file workload runs spec-to-bytes on a real
// FileStore, once per engine: TCE text in, checked output bytes out.
type fileCase struct {
	name string
	spec string
	cfg  machine.Config
	// pin fixes the plan; nil lets the solver choose it.
	pin *pin
	// generate makes the inputs from the run's RNG and evaluates the
	// reference output with the benchmark's own loops.
	generate func(rng *rand.Rand) (inputs []fileInput, ref []float64)
	output   string
	points   float64 // multiply-adds the plan's compute performs (computed)

	inputs []fileInput
	ref    []float64
	master string // directory of the staged inputs
}

// fileWorkload runs its cases on fresh FileStores under a scratch
// directory. Files are served from the page cache: the numbers measure
// FileStore's software path (syscalls, copies, CRC), not a device.
type fileWorkload struct {
	label   string
	cases   []*fileCase
	scratch string // parent of this run's scratch directory
	dir     string
	seed    int64
}

func (w *fileWorkload) name() string { return w.label }

func fourIndexCase(n, v int64, mem int64) *fileCase {
	return &fileCase{
		name: fmt.Sprintf("fourindex-%dx%d", n, v),
		spec: tce.FourIndexSpec(n, v),
		cfg:  machine.Small(mem),
		generate: func(rng *rand.Rand) ([]fileInput, []float64) {
			a := randomData(rng, n*n*n*n)
			var c [4][]float64
			for i := range c {
				c[i] = randomData(rng, n*v)
			}
			in := []fileInput{{"A", []int64{n, n, n, n}, a}}
			for i, name := range []string{"C1", "C2", "C3", "C4"} {
				in = append(in, fileInput{name, []int64{n, v}, c[i]})
			}
			return in, refFourIndex(a, c[0], c[1], c[2], c[3], n, v)
		},
		output: "B",
		// Operation-minimized: four mode products.
		points: float64(n*n*n*n*v + n*n*n*v*v + n*n*v*v*v + n*v*v*v*v),
	}
}

// newFourIndexFiles is the paper's workload at test scale through the
// whole path on real files; the compute interpreter dominates.
func newFourIndexFiles(quick bool, scratch string) *fileWorkload {
	w := &fileWorkload{label: "fourindex-files", scratch: scratch}
	if quick {
		w.cases = []*fileCase{fourIndexCase(12, 12, 64<<10)}
		return w
	}
	w.cases = []*fileCase{fourIndexCase(24, 24, 2<<20)}
	return w
}

func reduceCase(n, k int64, tiles map[string]int64) *fileCase {
	return &fileCase{
		name: "reduce-strided",
		spec: fmt.Sprintf(`
range N = %d;
range K = %d;
index i, j : N;
index k : K;
tensor A[i,j,k];
tensor v[k];
C[i,j] = A[i,j,k] * v[k];
`, n, k),
		cfg: machine.Small(16 << 20),
		// Read-heavy: every A section is tile(i)·tile(j) runs of tile(k)
		// elements — the pattern the solver really emits, since the cost
		// model ignores stride.
		pin: &pin{tiles: tiles, labels: map[string]string{"A": "read leaf", "v": "read above iT", "C": "write above kT"}},
		generate: func(rng *rand.Rand) ([]fileInput, []float64) {
			a, v := randomData(rng, n*n*k), randomData(rng, k)
			return []fileInput{{"A", []int64{n, n, k}, a}, {"v", []int64{k}, v}}, refReduce(a, v, n, k)
		},
		output: "C",
		points: float64(n * n * k),
	}
}

func thinWriteCase(n, k int64, tiles map[string]int64) *fileCase {
	return &fileCase{
		name: "thin-write",
		spec: fmt.Sprintf(`
range N = %d;
range K = %d;
index i, j : N;
index k : K;
tensor A[i,k];
tensor B[k,j];
C[i,j] = A[i,k] * B[k,j];
`, n, k),
		cfg: machine.Small(16 << 20),
		// Write-heavy: the output leaves in long contiguous sections,
		// through FileStore's read-modify-verify and re-index path.
		pin: &pin{tiles: tiles, labels: map[string]string{"A": "read above iT", "B": "read above iT", "C": "write above kT"}},
		generate: func(rng *rand.Rand) ([]fileInput, []float64) {
			a, b := randomData(rng, n*k), randomData(rng, k*n)
			return []fileInput{{"A", []int64{n, k}, a}, {"B", []int64{k, n}, b}}, refMatMul(a, b, n, k)
		},
		output: "C",
		points: float64(n * n * k),
	}
}

// newThinIOFiles is the workload where disk.FileStore does most of the
// work: two pinned plans, compute little, solver none.
func newThinIOFiles(quick bool, scratch string) *fileWorkload {
	w := &fileWorkload{label: "thin-io-files", scratch: scratch}
	if quick {
		w.cases = []*fileCase{
			reduceCase(60, 4, map[string]int64{"i": 15, "j": 30, "k": 2}),
			thinWriteCase(300, 2, map[string]int64{"i": 60, "j": 300, "k": 2}),
		}
		return w
	}
	w.cases = []*fileCase{
		reduceCase(500, 8, map[string]int64{"i": 125, "j": 250, "k": 4}),
		thinWriteCase(2500, 2, map[string]int64{"i": 500, "j": 2500, "k": 2}),
	}
	return w
}

func (w *fileWorkload) setUp(seed int64) error {
	w.seed = seed
	if err := os.MkdirAll(w.scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.scratch, w.label+"-")
	if err != nil {
		return err
	}
	w.dir = dir
	rng := rand.New(rand.NewSource(seed))
	for _, c := range w.cases {
		c.inputs, c.ref = c.generate(rng)
		c.master = filepath.Join(w.dir, "staged-"+c.name)
		if err := stageInputs(c.master, c.cfg.Disk, c.inputs); err != nil {
			return err
		}
		// Pinned plans are checked once here, so a pin that stops
		// matching fails set-up rather than every pass.
		if c.pin != nil {
			prog, err := frontEnd(nil, c.name, c.spec)
			if err != nil {
				return err
			}
			if _, err := pinnedPlan(nil, prog, c.cfg, *c.pin, true); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		}
	}
	p := newPassRec()
	w.runCase(nil, p, w.cases[0], false, nil, "warm-up")
	if p.failed > 0 {
		return fmt.Errorf("warm-up: %s", p.failures[0])
	}
	return nil
}

func (w *fileWorkload) tearDown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// fileRun is what one operation leaves for the pass's cross-engine check
// and ledger.
type fileRun struct {
	c        *fileCase
	pipeline bool
	plan     *synthOut
	solves   []solveStats
	x        *execOut
	verified int64 // checksum blocks FileStore verified
}

// runCase is one operation: spec text → plan → execution on a fresh
// store → output compared with the reference.
func (w *fileWorkload) runCase(tr *tracer, p *passRec, c *fileCase, pipeline bool, serial *fileRun, what string) *fileRun {
	dir := filepath.Join(w.dir, what)
	defer os.RemoveAll(dir)
	run := &fileRun{c: c, pipeline: pipeline}
	err := func() error {
		fs, err := freshStore(c.master, dir, c.cfg.Disk)
		if err != nil {
			return err
		}
		closed := false
		defer func() {
			if !closed {
				fs.Close()
			}
		}()
		var prog *loops.Program
		err = p.frontEndTimed(func() (err error) {
			prog, err = frontEnd(tr, c.name, c.spec)
			return err
		})
		if err != nil {
			return err
		}
		if c.pin != nil {
			run.plan, err = pinnedPlan(tr, prog, c.cfg, *c.pin, true)
		} else {
			// The solver seed is the run's seed on every pass, so every
			// pass executes the same plan.
			run.plan, err = synthesize(tr, prog, synthSpec{
				kind: "dlm", machine: c.cfg, strategy: core.DCS, seed: w.seed, verify: true,
			}, &run.solves)
		}
		if err != nil {
			return err
		}
		p.addSynth(run.plan)
		if err := checkPlan(run.plan.plan, c.cfg.MemoryLimit); err != nil {
			return err
		}
		closed = true // execute closes the store, whatever happens
		run.x, err = execute(tr, run.plan.plan, fs, exec.Options{OpenInputs: true, Pipeline: pipeline})
		if err != nil {
			return err
		}
		p.addExec(run.x, run.plan.plan.Predicted)
		if serial != nil && !sameTraffic(serial.x.stats, run.x.stats) {
			return fmt.Errorf("engines moved different traffic: serial %v, pipelined %v", serial.x.stats, run.x.stats)
		}
		run.verified = fs.Integrity().VerifiedBlocks
		got, err := readBack(dir, c.cfg.Disk, c.output)
		if err != nil {
			return err
		}
		return compareOutput(c.output, got, c.ref)
	}()
	if !p.op(what, err) {
		return nil
	}
	return run
}

func (w *fileWorkload) pass(tr *tracer, n int) *passRec {
	p := newPassRec()
	var runs []*fileRun
	var plans []*synthOut
	opID := 0
	for _, c := range w.cases {
		var serial *fileRun
		for _, pipeline := range []bool{false, true} {
			opID++
			tr.setOp(opID)
			engine := "serial"
			if pipeline {
				engine = "pipeline"
			}
			run := w.runCase(tr, p, c, pipeline, serial, c.name+"-"+engine)
			if run == nil {
				continue
			}
			runs = append(runs, run)
			plans = append(plans, run.plan)
			p.addTraffic(run.x.stats)
			if !pipeline {
				serial = run
			}
		}
	}
	p.finish(plans)
	if tr != nil {
		w.ledger(p, tr, runs)
	}
	return p
}
