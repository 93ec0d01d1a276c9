package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tiling"
)

// ledgerRow names one per-layer metric. The layers are the repo's
// packages; the prefix of a name is the package it measures. A traced run
// reports every row on every workload; 0 means the layer is not on that
// workload's path (the prediction there is "no change").
type ledgerRow struct {
	name, unit, better string
}

const (
	lower  = "lower"
	higher = "higher"
)

var ledger = []ledgerRow{
	// Front end and synthesis stages: median nanoseconds per call.
	{"tce.parse_ns", "ns", lower}, {"tce.lower_ns", "ns", lower}, {"loops.fuse_ns", "ns", lower},
	{"tiling.tile_ns", "ns", lower}, {"placement.enumerate_ns", "ns", lower},
	{"placement.candidates", "count", lower}, {"placement.bound_pruned", "count", higher},
	{"nlp.build_ns", "ns", lower}, {"nlp.dim", "count", lower},
	{"nlp.objective_ns_per_eval", "ns", lower}, {"nlp.violations_ns_per_eval", "ns", lower},
	{"nlp.allocs_per_eval", "count", lower}, {"nlp.bytes_per_eval", "B", lower},
	// Solver: median wall per solve of each kind; totals over the pass.
	{"dcs.dlm.wall_s", "s", lower}, {"dcs.csa.wall_s", "s", lower},
	{"dcs.portfolio4.wall_s", "s", lower}, {"dcs.warm.wall_s", "s", lower},
	{"dcs.evals", "count", lower}, {"dcs.evals_per_s", "1/s", higher}, {"dcs.evals_to_1pct", "count", lower},
	{"dcs.allocs_per_solve", "count", lower}, {"dcs.alloc_mb_per_solve", "MB", lower},
	{"codegen.generate_ns", "ns", lower}, {"codegen.plan_nodes", "count", lower},
	{"codegen.plan_json_bytes", "B", lower}, {"codegen.buffer_bytes", "B", lower},
	// An identity, not a measure: its direction means nothing.
	{"codegen.plan_digest", "hash48", lower},
	{"verify.check_ns", "ns", lower}, {"verify.findings", "count", lower},
	// Execution on real data.
	{"exec.serial.wall_s", "s", lower}, {"exec.pipeline.wall_s", "s", lower}, {"exec.self_s", "s", lower},
	{"exec.points", "count", lower}, {"exec.ns_per_point", "ns", lower}, {"exec.section_ops", "count", lower},
	{"exec.pipeline.speedup_wall", "ratio", higher}, {"exec.pipeline.speedup_model", "ratio", higher},
	{"exec.dryrun_ns_per_op.serial", "ns", lower}, {"exec.dryrun_ns_per_op.pipeline", "ns", lower},
	// FileStore, seen by the timing wrapper under the serial engine.
	{"disk.filestore.read_s", "s", lower}, {"disk.filestore.write_s", "s", lower},
	{"disk.filestore.read_mb_per_s", "MB/s", higher}, {"disk.filestore.write_mb_per_s", "MB/s", higher},
	{"disk.filestore.read_ops", "count", lower}, {"disk.filestore.write_ops", "count", lower},
	{"disk.filestore.bytes_read", "B", lower}, {"disk.filestore.bytes_written", "B", lower},
	{"disk.filestore.runs_per_section", "count", lower}, {"disk.filestore.verify_blocks", "count", lower},
	{"disk.filestore.create_s", "s", lower}, {"disk.filestore.close_s", "s", lower},
	{"disk.raw_floor_s", "s", lower}, {"disk.filestore.floor_ratio", "ratio", lower},
	{"disk.sim.ns_per_op", "ns", lower},
	// Decorators, each alone on a bare cost-only Sim under the serial
	// engine: marginal nanoseconds per section operation.
	{"fault.wrap.ns_per_op", "ns", lower}, {"trace.recorder.ns_per_op", "ns", lower},
	{"ring.p1r1.ns_per_op", "ns", lower}, {"ring.p4r2.ns_per_op", "ns", lower},
	{"health.plane.ns_per_op", "ns", lower}, {"obs.attached.ns_per_op", "ns", lower},
	{"stack.full.ns_per_op", "ns", lower}, {"stack.overhead_ratio", "ratio", lower},
	// Predicted against measured over every executed plan of the pass.
	{"model.fit_worst_ratio", "ratio", lower}, {"model.misfit_plans", "count", lower},
	// Self-time shares of the traced pass's e2e_wall_s: which layer the
	// workload loads, not something to push up or down.
	{"share.solver", "ratio", lower}, {"share.exec_self", "ratio", lower},
	{"share.backend", "ratio", lower}, {"share.exec_total", "ratio", lower},
	{"proc.peak_rss_mb", "MB", lower}, {"proc.alloc_mb", "MB", lower},
	{"proc.gc_pause_ms", "ms", lower}, {"proc.gomaxprocs", "count", higher},
	{"bench.trace_overhead_ratio", "ratio", lower},
}

// stageLedger fills the rows every traced pass can read off its spans:
// per-call medians of the front-end and synthesis stages, the fit of the
// cost model, and the self-time shares.
func stageLedger(p *passRec, tr *tracer) {
	by := spansByName(tr.spans)
	for _, rs := range [][2]string{
		{"tce.parse_ns", "tce.Parse"}, {"tce.lower_ns", "tce.Lower"}, {"loops.fuse_ns", "loops.FuseGreedy"},
		{"tiling.tile_ns", "tiling.Tile"}, {"placement.enumerate_ns", "placement.Enumerate"},
		{"nlp.build_ns", "nlp.Build"}, {"codegen.generate_ns", "codegen.Generate"}, {"verify.check_ns", "verify.Check"},
	} {
		if ns := by[rs[1]]; ns != nil {
			p.layer[rs[0]] = median(ns.Durs)
		}
	}
	worst, misfits := 1.0, 0
	for _, f := range p.fits {
		worst = max(worst, f)
		if f > 1.01 {
			misfits++
		}
	}
	p.layer["model.fit_worst_ratio"] = worst
	p.layer["model.misfit_plans"] = float64(misfits)
	p.layer["codegen.plan_digest"] = p.counts["codegen.plan_digest"]
	p.layer["verify.findings"] = p.counts["verify.findings"]
	p.layer["exec.section_ops"] = p.counts["exec.section_ops"]

	e2e := p.e2e.Seconds()
	self := func(name string) float64 {
		if ns := by[name]; ns != nil {
			return ns.Self.Seconds()
		}
		return 0
	}
	total := func(name string) float64 {
		if ns := by[name]; ns != nil {
			return ns.Total.Seconds()
		}
		return 0
	}
	execSelf := self("exec.Run")
	// Backend time: what the backend calls cover of their exec.Run, plus
	// the Close that follows it.
	backend := total("exec.Run") - execSelf + total("disk.Close")
	p.layer["share.solver"] = (self("dcs.Run") + self("nlp.Build")) / e2e
	p.layer["share.exec_self"] = execSelf / e2e
	p.layer["share.backend"] = backend / e2e
	p.layer["share.exec_total"] = (execSelf + backend) / e2e
}

// solverLedger fills the dcs rows from the traced pass's solves.
func solverLedger(p *passRec, stats []solveStats) {
	if len(stats) == 0 {
		return
	}
	walls := map[string][]float64{}
	var evals, wall float64
	var to1, allocs, allocMB, dims, cands []float64
	pruned := 0.0
	for _, s := range stats {
		walls[s.kind] = append(walls[s.kind], s.wall.Seconds())
		evals += float64(s.evals)
		wall += s.wall.Seconds()
		if s.kind != "portfolio4" {
			to1 = append(to1, float64(s.evalsTo1))
		}
		// Allocation per solve is the cold single-lane figure: warm solves
		// stop after a few thousand evaluations and would halve the median.
		if s.kind == "dlm" || s.kind == "csa" {
			allocs = append(allocs, float64(s.allocs))
			allocMB = append(allocMB, float64(s.allocByte)/1e6)
		}
		dims = append(dims, float64(s.dim))
		cands = append(cands, float64(s.cands))
		pruned += float64(s.pruned)
	}
	for _, kind := range []string{"dlm", "csa", "portfolio4", "warm"} {
		if w := walls[kind]; len(w) > 0 {
			p.layer["dcs."+kind+".wall_s"] = median(w)
		}
	}
	p.layer["dcs.evals"] = evals
	p.layer["dcs.evals_per_s"] = evals / wall
	p.layer["dcs.evals_to_1pct"] = median(to1)
	p.layer["dcs.allocs_per_solve"] = median(allocs)
	p.layer["dcs.alloc_mb_per_solve"] = median(allocMB)
	p.layer["nlp.dim"] = median(dims)
	p.layer["placement.candidates"] = median(cands)
	p.layer["placement.bound_pruned"] = pruned
}

// planLedger fills the static plan figures: medians over the pass's plans.
func planLedger(p *passRec, plans []*synthOut) {
	var nodes, jsonBytes, bufBytes []float64
	for _, s := range plans {
		n, b, err := planShape(s.plan)
		if !p.op("plan JSON", err) {
			continue
		}
		nodes = append(nodes, float64(n))
		jsonBytes = append(jsonBytes, float64(b))
		bufBytes = append(bufBytes, float64(s.plan.MemoryBytes()))
	}
	if len(nodes) > 0 {
		p.layer["codegen.plan_nodes"] = median(nodes)
		p.layer["codegen.plan_json_bytes"] = median(jsonBytes)
		p.layer["codegen.buffer_bytes"] = median(bufBytes)
	}
}

// evalPoints is how many seeded in-bounds points the nlp probe evaluates.
const evalPoints = 10000

// nlpEvalLedger times the solver's inner loop from outside: seeded
// in-bounds points through Problem.Objective and Problem.Violations of
// the paper's 140×120 problem.
func nlpEvalLedger(p *passRec, seed int64) error {
	tree, err := tiling.Tile(loops.FourIndexAbstract(140, 120))
	if err != nil {
		return err
	}
	model, err := placement.Enumerate(tree, machine.OSCItanium2(), placement.Options{})
	if err != nil {
		return err
	}
	prob := nlp.Build(model)
	rng := rand.New(rand.NewSource(seed))
	points := make([][]int64, evalPoints)
	for i := range points {
		x := make([]int64, prob.Dim())
		for j := range x {
			lo, hi := prob.Bounds(j)
			x[j] = lo + rng.Int63n(hi-lo+1)
		}
		points[i] = x
	}
	var before, mid, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sink := 0.0
	for _, x := range points {
		sink += prob.Objective(x)
	}
	objective := time.Since(start)
	runtime.ReadMemStats(&mid)
	start = time.Now()
	for _, x := range points {
		sink += float64(len(prob.Violations(x)))
	}
	violations := time.Since(start)
	runtime.ReadMemStats(&after)
	if sink < 0 {
		panic("unreachable: objectives and violation counts are non-negative")
	}
	p.layer["nlp.objective_ns_per_eval"] = float64(objective) / evalPoints
	p.layer["nlp.violations_ns_per_eval"] = float64(violations) / evalPoints
	p.layer["nlp.allocs_per_eval"] = float64(after.Mallocs-before.Mallocs) / evalPoints
	p.layer["nlp.bytes_per_eval"] = float64(after.TotalAlloc-before.TotalAlloc) / evalPoints
	return nil
}

// ledger fills the execution and FileStore rows of a file workload from
// its runs: the serial runs carry the timing wrapper's account.
func (w *fileWorkload) ledger(p *passRec, tr *tracer, runs []*fileRun) {
	stageLedger(p, tr)
	var stats []solveStats
	var plans []*synthOut
	var serialWall, pipeWall, self, points, verified float64
	var read, write, create, closeS time.Duration
	var st disk.Stats
	var sections, sectionRuns int64
	var speedups []float64
	for _, r := range runs {
		stats = append(stats, r.solves...)
		plans = append(plans, r.plan)
		if r.pipeline {
			pipeWall += r.x.wall.Seconds()
			speedups = append(speedups, r.x.pipe.Speedup())
			continue
		}
		tb := r.x.tb
		serialWall += r.x.wall.Seconds()
		self += (r.x.wall - time.Duration(tb.busyNs())).Seconds()
		points += r.c.points
		verified += float64(r.verified)
		read += time.Duration(tb.readNs.Load())
		write += time.Duration(tb.writeNs.Load())
		create += time.Duration(tb.createNs.Load())
		closeS += time.Duration(tb.closeNs.Load())
		st.Add(r.x.stats)
		sections += tb.reads.Load() + tb.writes.Load()
		sectionRuns += tb.runs.Load()
	}
	solverLedger(p, stats)
	planLedger(p, plans)
	p.layer["exec.serial.wall_s"] = serialWall
	p.layer["exec.pipeline.wall_s"] = pipeWall
	p.layer["exec.self_s"] = self
	p.layer["exec.points"] = points
	if points > 0 {
		p.layer["exec.ns_per_point"] = self * 1e9 / points
	}
	if pipeWall > 0 {
		p.layer["exec.pipeline.speedup_wall"] = serialWall / pipeWall
		p.layer["exec.pipeline.speedup_model"] = median(speedups)
	}
	p.layer["disk.filestore.read_s"] = read.Seconds()
	p.layer["disk.filestore.write_s"] = write.Seconds()
	p.layer["disk.filestore.create_s"] = create.Seconds()
	p.layer["disk.filestore.close_s"] = closeS.Seconds()
	p.layer["disk.filestore.read_ops"] = float64(st.ReadOps)
	p.layer["disk.filestore.write_ops"] = float64(st.WriteOps)
	p.layer["disk.filestore.bytes_read"] = float64(st.BytesRead)
	p.layer["disk.filestore.bytes_written"] = float64(st.BytesWritten)
	p.layer["disk.filestore.verify_blocks"] = verified
	if read > 0 {
		p.layer["disk.filestore.read_mb_per_s"] = float64(st.BytesRead) / 1e6 / read.Seconds()
	}
	if write > 0 {
		p.layer["disk.filestore.write_mb_per_s"] = float64(st.BytesWritten) / 1e6 / write.Seconds()
	}
	if sections > 0 {
		p.layer["disk.filestore.runs_per_section"] = float64(sectionRuns) / float64(sections)
	}
	floor, err := rawFloor(filepath.Join(w.dir, "raw-floor.bin"), st.BytesWritten, st.BytesRead)
	if p.op("raw floor probe", err) {
		p.layer["disk.raw_floor_s"] = floor.Seconds()
		p.layer["disk.filestore.floor_ratio"] = (read + write).Seconds() / floor.Seconds()
	}
	// The same plans' I/O structure on the cost-only simulator.
	var simWall time.Duration
	var simOps int64
	for _, r := range runs {
		if r.pipeline {
			continue
		}
		x, err := execute(nil, r.plan.plan, disk.NewSim(r.c.cfg.Disk, false), exec.Options{DryRun: true})
		if !p.op("sim dry-run probe", err) {
			continue
		}
		simWall += x.wall
		simOps += x.stats.ReadOps + x.stats.WriteOps
	}
	if simOps > 0 {
		p.layer["disk.sim.ns_per_op"] = float64(simWall) / float64(simOps)
	}
}

// rawFloor is the floor under FileStore: a plain sequential os.File write
// of writeBytes and a sequential read of readBytes, in 1 MiB pieces.
func rawFloor(path string, writeBytes, readBytes int64) (time.Duration, error) {
	defer os.Remove(path)
	buf := make([]byte, 1<<20)
	start := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	size := max(writeBytes, readBytes)
	for left := size; left > 0; left -= int64(len(buf)) {
		if _, err := f.Write(buf[:min(left, int64(len(buf)))]); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	// Only the bytes the plans wrote count towards the write half.
	elapsed = time.Duration(float64(elapsed) * float64(writeBytes) / float64(size))
	start = time.Now()
	for left, off := readBytes, int64(0); left > 0; {
		n, err := f.ReadAt(buf[:min(left, int64(len(buf)))], off)
		if err != nil {
			return 0, err
		}
		left -= int64(n)
		off += int64(n)
	}
	return elapsed + time.Since(start), nil
}

// decoratorReps is how many dry runs each decorator measurement takes the
// median of.
const decoratorReps = 3

// ledger fills the dry-run and decorator rows of the stack workload.
func (w *stackDryRun) ledger(p *passRec, tr *tracer, s *synthOut, legs map[string]*execOut) {
	stageLedger(p, tr)
	planLedger(p, []*synthOut{s})
	ops := p.counts["exec.section_ops"]
	if x := legs["sim-serial"]; x != nil {
		p.layer["exec.dryrun_ns_per_op.serial"] = float64(x.wall) / ops
	}
	if x := legs["sim-pipeline"]; x != nil {
		p.layer["exec.dryrun_ns_per_op.pipeline"] = float64(x.wall) / ops
	}
	// Each decorator alone on a bare Sim, serial engine.
	perOp := func(parts stackParts) float64 {
		var walls []float64
		for i := 0; i < decoratorReps; i++ {
			x, err := w.dryRun(nil, s, parts, false)
			if !p.op("decorator dry-run probe", err) {
				return 0
			}
			walls = append(walls, float64(x.wall))
		}
		return median(walls) / ops
	}
	bare := perOp(stackParts{})
	ring42 := perOp(stackParts{shards: 4, replicas: 2})
	full := perOp(fullStack)
	p.layer["disk.sim.ns_per_op"] = bare
	p.layer["fault.wrap.ns_per_op"] = perOp(stackParts{faults: true}) - bare
	p.layer["trace.recorder.ns_per_op"] = perOp(stackParts{recorder: true}) - bare
	p.layer["ring.p1r1.ns_per_op"] = perOp(stackParts{shards: 1, replicas: 1}) - bare
	p.layer["ring.p4r2.ns_per_op"] = ring42 - bare
	p.layer["health.plane.ns_per_op"] = perOp(stackParts{shards: 4, replicas: 2, health: true}) - ring42
	p.layer["obs.attached.ns_per_op"] = perOp(stackParts{obs: true}) - bare
	p.layer["stack.full.ns_per_op"] = full - bare
	p.layer["stack.overhead_ratio"] = full / bare
}
