// Package verify is an independent static checker for synthesized
// out-of-core plans. It re-derives, from nothing but the concrete
// codegen.Plan and the machine model, every invariant a legal out-of-core
// program must satisfy — deliberately without consulting the placement
// enumerator or the NLP encoding that produced the plan, so a bug in
// either is caught here instead of silently executing a wrong-but-
// plausible program.
//
// The checks fall in three groups, each mapped to the paper section whose
// rule it enforces (see Rules):
//
//   - dataflow legality (DF1–DF5): reads of intermediates are dominated by
//     the writes that produced them, I/O sits at or below the
//     producer/consumer LCA, inputs are never written, outputs are never
//     consumed, and accumulation under a redundant loop is read-modify-
//     write against a zero-initialized array;
//   - resource legality (R1–R4): buffer extents recomputed from the loop
//     structure match the plan's declared footprint, the total fits the
//     machine's memory, every disk transfer meets the minimum block size,
//     and tile sizes are in range;
//   - schedule legality (S1–S5): buffer state is closed under top-level
//     work units (the barrier discipline the pipelined engine and
//     exec.Checkpointable rely on), every disk read is covered by earlier
//     writes (RAW), overlapping writes are separated by a read-back (WAW),
//     a resume checkpoint (Options.Resume) names a real unit boundary
//     of a checkpointable plan, and every disk intermediate the plan
//     reads has a producer unit at or before its first reader — the
//     static counterpart of exec's integrity-heal rollback.
//
// Check returns a Report of structured Diagnostics rather than a bare
// error so callers can assert on specific rule IDs.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/codegen"
	"repro/internal/exec"
	"repro/internal/loops"
	"repro/internal/placement"
)

// Rule describes one verifier rule and the paper section it enforces.
type Rule struct {
	ID       string
	Title    string
	PaperRef string
}

// Rules lists every rule the checker can report, with the section of the
// source paper (and, for the schedule group, the pipelined-execution
// design in DESIGN.md) each one re-derives.
var Rules = []Rule{
	{"DF1", "buffer defined before use", "§3 (producer before consumer)"},
	{"DF2", "input arrays are never written", "§2 (inputs are read-only operands)"},
	{"DF3", "output arrays are produced, not consumed", "§3 (outputs have no consumer statement)"},
	{"DF4", "intermediate I/O at or below the producer/consumer LCA", "§4.1 (placements bounded by the common loop nest)"},
	{"DF5", "writes under a redundant loop are read-modify-write with zero-init", "§4.1 (redundant loops force read-back)"},
	{"R1", "buffer extents match the declared footprint", "§4.2 (memory cost terms)"},
	{"R2", "total buffer memory within the machine limit", "§4.2 (memory-limit constraint)"},
	{"R3", "disk transfers meet the minimum block size", "§4.2 (seek-amortizing block constraints)"},
	{"R4", "tile sizes within loop ranges", "§4 (1 ≤ tile ≤ N variable bounds)"},
	{"S1", "buffer state closed under top-level work units", "§3 ordering; DESIGN.md pipeline barriers"},
	{"S2", "disk reads covered by prior writes (RAW)", "§3 (producer before consumer, at disk granularity)"},
	{"S3", "overlapping writes separated by read-back (WAW)", "§3 (accumulation clobber)"},
	{"S4", "resume checkpoint aligned to a unit boundary", "§3 ordering; DESIGN.md §8 (recovery restarts at unit granularity)"},
	{"S5", "disk intermediates have a producer unit at or before their first reader", "DESIGN.md §9 (integrity recovery recomputes rotten intermediates from the producer unit)"},
}

// RuleByID returns the rule with the given ID (zero Rule if unknown).
func RuleByID(id string) Rule {
	for _, r := range Rules {
		if r.ID == id {
			return r
		}
	}
	return Rule{}
}

// Diagnostic is one verification finding.
type Diagnostic struct {
	// Rule is the violated rule's ID ("DF4", "R3", ...).
	Rule string
	// Array names the disk array or buffered array involved ("" when the
	// finding is plan-global).
	Array string
	// Pos locates the finding: a loop path like "a/q" for structural
	// findings, concrete bases like "a=2,q=0" for schedule findings, or
	// "top" / "plan".
	Pos string
	// Detail is the human-readable explanation.
	Detail string
}

// PaperRef returns the paper section the violated rule enforces.
func (d Diagnostic) PaperRef() string { return RuleByID(d.Rule).PaperRef }

func (d Diagnostic) String() string {
	arr := d.Array
	if arr == "" {
		arr = "-"
	}
	return fmt.Sprintf("%s [%s at %s]: %s (%s)", d.Rule, arr, d.Pos, d.Detail, d.PaperRef())
}

// Report is the outcome of one Check.
type Report struct {
	Diags []Diagnostic
	// Checkpointable mirrors exec.Checkpointable for the plan: whether its
	// top level carries only re-executable state (loops, init passes,
	// reads), the property StopAfter/Resume and the S1 unit model rely on.
	Checkpointable bool
	// Steps counts the flattened schedule operations examined; Truncated
	// reports that the walk hit its step cap (or an event cap) and the
	// schedule rules were only partially checked.
	Steps     int
	Truncated bool
}

// OK reports a clean verification.
func (r *Report) OK() bool { return len(r.Diags) == 0 }

// Has reports whether any diagnostic violates the given rule ID.
func (r *Report) Has(rule string) bool {
	for _, d := range r.Diags {
		if d.Rule == rule {
			return true
		}
	}
	return false
}

// Err summarizes the report as an error (nil when clean).
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	if len(r.Diags) == 1 {
		return fmt.Errorf("verify: %s", r.Diags[0])
	}
	return fmt.Errorf("verify: %s (and %d more)", r.Diags[0], len(r.Diags)-1)
}

func (r *Report) String() string {
	if r.OK() {
		s := fmt.Sprintf("verify: ok (%d schedule steps)", r.Steps)
		if r.Truncated {
			s += " [truncated]"
		}
		return s
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d finding(s)\n", len(r.Diags))
	for _, d := range r.Diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// Options tune Check.
type Options struct {
	// MaxEvents caps the per-array I/O event and coverage-fragment lists
	// of the schedule walk. 0 means the default.
	MaxEvents int
	// Resume, when non-nil, is a checkpoint a caller intends to restart
	// from (exec.Options.Resume, or a RecoveryReport resume point); S4
	// checks it names a real unit boundary of a checkpointable plan.
	Resume *exec.Checkpoint
}

const (
	// maxSteps caps the flattened schedule walk (S2/S3); beyond it the
	// report is marked Truncated instead of running forever on plans whose
	// tiling implies astronomical trip counts.
	maxSteps         = 200000
	defaultMaxEvents = 4096
)

// Check verifies a plan with default options.
func Check(p *codegen.Plan) *Report { return CheckOpts(p, Options{}) }

// CheckOpts verifies a plan: dataflow (DF), resource (R), and schedule (S)
// legality, independently re-derived from the plan itself.
func CheckOpts(p *codegen.Plan, opt Options) *Report {
	c := newChecker(p, opt)
	c.resource()
	c.structural()
	c.lca()
	c.schedule()
	c.resume()
	c.producers()
	return c.rep
}

// newChecker applies the option defaults and indexes the plan's disk
// arrays.
func newChecker(p *codegen.Plan, opt Options) *checker {
	if opt.MaxEvents <= 0 {
		opt.MaxEvents = defaultMaxEvents
	}
	c := &checker{
		p:      p,
		opt:    opt,
		rep:    &Report{Checkpointable: exec.Checkpointable(p)},
		arrays: map[string]codegen.DiskArray{},
		seen:   map[string]bool{},
		badIO:  map[*codegen.IO]bool{},
	}
	for _, da := range p.DiskArrays {
		c.arrays[da.Name] = da
	}
	return c
}

// producers enforces S5: every non-input disk array the plan reads must
// have a producer unit — a top-level item whose subtree writes it (an
// init pass counts) — at or before the item that first reads it. This is
// the static guarantee behind exec's integrity recovery: when a verified
// read finds a rotten intermediate, the heal path rolls the resume point
// back to exec.ProducerUnit and re-executes from there, which only
// recreates the data if such a unit exists above the reader.
func (c *checker) producers() {
	firstRead := map[string]int{}
	firstWrite := map[string]int{}
	for i, n := range c.p.Body {
		reads, writes := codegen.UnitIO(n)
		for a := range reads {
			if _, ok := firstRead[a]; !ok {
				firstRead[a] = i
			}
		}
		for a := range writes {
			if _, ok := firstWrite[a]; !ok {
				firstWrite[a] = i
			}
		}
	}
	names := make([]string, 0, len(firstRead))
	for a := range firstRead {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		if da, ok := c.arrays[a]; !ok || da.Kind == loops.Input {
			// Inputs are healed by re-staging from the source tensor, not
			// by recomputation; undeclared arrays are DF territory.
			continue
		}
		r := firstRead[a]
		w, written := firstWrite[a]
		switch {
		case !written:
			c.diag("S5", a, fmt.Sprintf("item=%d", r),
				"read by top-level item %d but no top-level unit writes it; integrity recovery would have no producer unit to recompute it from", r)
		case w > r:
			c.diag("S5", a, fmt.Sprintf("item=%d", r),
				"first read by top-level item %d precedes its producer unit (item %d); integrity recovery cannot roll back to a unit that has not run", r, w)
		}
	}
}

// resume enforces S4: a checkpoint a caller plans to restart from must
// name a boundary the engine's unit model can actually produce — on a
// checkpointable plan, at an existing top-level item, with an iteration
// inside the item's tile count (and zero for non-loop items). Anything
// else would silently skip or repeat work on resume.
func (c *checker) resume() {
	cp := c.opt.Resume
	if cp == nil {
		return
	}
	pos := fmt.Sprintf("item=%d,iter=%d", cp.Item, cp.Iter)
	if !c.rep.Checkpointable {
		c.diag("S4", "", pos, "resume checkpoint on a plan that is not checkpointable")
		return
	}
	if cp.Item < 0 || cp.Iter < 0 {
		c.diag("S4", "", pos, "resume checkpoint has negative coordinates")
		return
	}
	if cp.Item > int64(len(c.p.Body)) {
		c.diag("S4", "", pos, "resume item %d beyond the plan's %d top-level items", cp.Item, len(c.p.Body))
		return
	}
	if cp.Item == int64(len(c.p.Body)) {
		if cp.Iter != 0 {
			c.diag("S4", "", pos, "resume past the last item must have iter 0")
		}
		return
	}
	if l, ok := c.p.Body[cp.Item].(*codegen.Loop); ok {
		units := (l.Range + l.Tile - 1) / l.Tile
		if cp.Iter >= units {
			c.diag("S4", "", pos,
				"resume iter %d outside loop %s's %d unit(s); a completed loop checkpoints as item=%d,iter=0",
				cp.Iter, l.Index, units, cp.Item+1)
		}
		return
	}
	if cp.Iter != 0 {
		c.diag("S4", "", pos, "resume into non-loop item %d must have iter 0", cp.Item)
	}
}

type checker struct {
	p      *codegen.Plan
	opt    Options
	rep    *Report
	arrays map[string]codegen.DiskArray
	// seen dedupes (rule, array, pos) so iterative walks report each
	// violation site once.
	seen map[string]bool
	// badIO holds the I/O whose buffer does not match its disk array
	// (DF1); the schedule walk leaves them out.
	badIO map[*codegen.IO]bool

	// structural-walk collections, consumed by lca().
	prodPaths map[string][][]*codegen.Loop // array -> producer compute loop paths
	consPaths map[string][][]*codegen.Loop // array -> consumer compute loop paths
	ioPaths   map[string][]ioSite          // array -> disk I/O and zero sites
}

type ioSite struct {
	path []*codegen.Loop
	desc string
}

func (c *checker) diag(rule, array, pos, format string, args ...interface{}) {
	key := rule + "\x00" + array + "\x00" + pos
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.rep.Diags = append(c.rep.Diags, Diagnostic{
		Rule:   rule,
		Array:  array,
		Pos:    pos,
		Detail: fmt.Sprintf(format, args...),
	})
}

// bufElems recomputes a buffer's full-extent element count from its
// dimension classes, the plan's tile sizes, and the program's ranges —
// the independent re-derivation R1 compares against Buffer.MaxElems.
func (c *checker) bufElems(b *codegen.Buffer) int64 {
	n := int64(1)
	for _, d := range b.Dims {
		switch d.Class {
		case placement.ExtTile:
			n *= c.p.Tiles[d.Index]
		case placement.ExtFull:
			n *= c.p.Prog.Ranges[d.Index]
		}
	}
	return n
}

// arrayBytes is the total on-disk size of an array.
func (c *checker) arrayBytes(da codegen.DiskArray) int64 {
	n := c.p.Cfg.ElemSize
	for _, d := range da.Dims {
		n *= d
	}
	return n
}

func pathString(path []*codegen.Loop) string {
	if len(path) == 0 {
		return "top"
	}
	parts := make([]string, len(path))
	for i, l := range path {
		parts[i] = l.Index
	}
	return strings.Join(parts, "/")
}

// ---------------------------------------------------------------------------
// Resource legality (R1–R4).

func (c *checker) resource() {
	total := int64(0)
	for _, b := range c.p.Buffers {
		want := c.bufElems(b)
		if b.MaxElems != want {
			c.diag("R1", b.Array, "plan",
				"buffer %q declares %d elements but its extents imply %d", b.Name, b.MaxElems, want)
		}
		total += want * c.p.Cfg.ElemSize
	}
	if decl := c.p.MemoryBytes(); decl != total {
		c.diag("R1", "", "plan",
			"plan declares %d buffer bytes but loop structure implies %d", decl, total)
	}
	if total > c.p.Cfg.MemoryLimit {
		c.diag("R2", "", "plan",
			"buffers need %d bytes, machine limit is %d", total, c.p.Cfg.MemoryLimit)
	}
	// R4: tile map consistency against the program.
	for idx, t := range c.p.Tiles {
		n, ok := c.p.Prog.Ranges[idx]
		if !ok {
			c.diag("R4", "", "plan", "tile for unknown index %q", idx)
			continue
		}
		if t < 1 || t > n {
			c.diag("R4", "", "plan", "tile %s=%d outside [1,%d]", idx, t, n)
		}
	}
}

// ---------------------------------------------------------------------------
// Structural dataflow legality (DF1–DF3, DF5, R3, R4 loops, S1).

func (c *checker) structural() {
	c.prodPaths = map[string][][]*codegen.Loop{}
	c.consPaths = map[string][][]*codegen.Loop{}
	c.ioPaths = map[string][]ioSite{}

	// Which buffers ever receive a disk read (read-modify-write read-backs
	// included): DF5 needs to know a write's buffer is read back.
	readBufs := map[*codegen.Buffer]bool{}
	var scanReads func(ns []codegen.Node)
	scanReads = func(ns []codegen.Node) {
		for _, n := range ns {
			switch n := n.(type) {
			case *codegen.Loop:
				scanReads(n.Body)
			case *codegen.IO:
				if n.Read {
					readBufs[n.Buffer] = true
				}
			}
		}
	}
	scanReads(c.p.Body)

	// Definition scopes: progDef is straight program order (DF1); topDef
	// holds definitions made at the top level, which persist across units;
	// unitDef holds definitions made inside the current top-level work unit
	// and is cleared at each unit boundary (S1). The unit model mirrors
	// exec: each iteration of a top-level loop is one unit, and the serial
	// body pass is first-iteration semantics — the weakest iteration for
	// def-before-use.
	progDef := map[*codegen.Buffer]bool{}
	topDef := map[*codegen.Buffer]bool{}
	unitDef := map[*codegen.Buffer]bool{}
	seenRead := map[*codegen.Buffer]bool{} // for DF5 read-before-write ordering

	var path []*codegen.Loop
	open := map[string]bool{}

	use := func(b *codegen.Buffer, what string) {
		pos := pathString(path)
		if !progDef[b] {
			c.diag("DF1", b.Array, pos, "%s uses buffer %q before any read or zero-fill defines it", what, b.Name)
			return
		}
		if !topDef[b] && !unitDef[b] {
			c.diag("S1", b.Array, pos,
				"%s uses buffer %q defined in an earlier top-level work unit; state must not cross the unit barrier", what, b.Name)
		}
	}
	define := func(b *codegen.Buffer, atTop bool) {
		progDef[b] = true
		if atTop {
			topDef[b] = true
		} else {
			unitDef[b] = true
		}
	}
	checkDims := func(b *codegen.Buffer, what string) {
		pos := pathString(path)
		for _, d := range b.Dims {
			if d.Class == placement.ExtTile && !open[d.Index] {
				c.diag("R4", b.Array, pos, "%s of buffer %q: tile dimension %q has no enclosing loop", what, b.Name, d.Index)
			}
		}
	}

	var walk func(ns []codegen.Node, atTop bool)
	walk = func(ns []codegen.Node, atTop bool) {
		for _, n := range ns {
			switch n := n.(type) {
			case *codegen.Loop:
				pos := pathString(path)
				if n.Tile < 1 || n.Tile > n.Range {
					c.diag("R4", "", pos, "loop %s has tile %d outside [1,%d]", n.Index, n.Tile, n.Range)
				}
				if want := c.p.Tiles[n.Index]; want != 0 && n.Tile != want {
					c.diag("R4", "", pos, "loop %s has tile %d, plan assigns %d", n.Index, n.Tile, want)
				}
				if want := c.p.Prog.Ranges[n.Index]; want != 0 && n.Range != want {
					c.diag("R4", "", pos, "loop %s has range %d, program declares %d", n.Index, n.Range, want)
				}
				if open[n.Index] {
					c.diag("R4", "", pos, "loop index %q opened twice", n.Index)
				}
				open[n.Index] = true
				path = append(path, n)
				walk(n.Body, false)
				path = path[:len(path)-1]
				delete(open, n.Index)
				if atTop {
					// Unit boundary: every iteration of a top-level loop is a
					// work unit; in-unit definitions do not survive it.
					unitDef = map[*codegen.Buffer]bool{}
				}
			case *codegen.IO:
				pos := pathString(path)
				da, declared := c.arrays[n.Array]
				if !declared {
					c.diag("DF1", n.Array, pos, "I/O on undeclared disk array %q", n.Array)
				}
				if declared && !bufferMatches(n.Buffer, da) {
					c.badIO[n] = true
					c.diag("DF1", n.Array, pos, "I/O moves buffer %q (array %s, indices %v) through disk array %q (indices %v)",
						n.Buffer.Name, n.Buffer.Array, bufIndices(n.Buffer), n.Array, da.Indices)
				}
				checkDims(n.Buffer, "I/O")
				c.ioPaths[n.Array] = append(c.ioPaths[n.Array], ioSite{
					path: append([]*codegen.Loop(nil), path...),
					desc: "I/O",
				})
				c.checkBlock(n, da, declared, pos)
				if n.Read {
					if declared && da.Kind == loops.Output && !da.NeedsInit {
						c.diag("DF3", n.Array, pos,
							"read of output %q which is not read-modify-write accumulated", n.Array)
					}
					seenRead[n.Buffer] = true
					define(n.Buffer, atTop)
				} else {
					if declared && da.Kind == loops.Input {
						c.diag("DF2", n.Array, pos, "write to input array %q", n.Array)
					}
					use(n.Buffer, "disk write")
					c.checkRedundantWrite(n, da, declared, path, readBufs, seenRead)
				}
			case *codegen.ZeroBuf:
				checkDims(n.Buffer, "zero-fill")
				c.ioPaths[n.Buffer.Array] = append(c.ioPaths[n.Buffer.Array], ioSite{
					path: append([]*codegen.Loop(nil), path...),
					desc: "zero-fill",
				})
				define(n.Buffer, atTop)
			case *codegen.InitPass:
				pos := pathString(path)
				da, declared := c.arrays[n.Array]
				if !declared {
					c.diag("DF1", n.Array, pos, "init pass on undeclared disk array %q", n.Array)
					continue
				}
				if da.Kind == loops.Input {
					c.diag("DF2", n.Array, pos, "zero-init pass over input array %q", n.Array)
				}
				if !da.NeedsInit {
					c.diag("DF5", n.Array, pos, "init pass on %q which is not read-modify-write accumulated", n.Array)
				}
			case *codegen.Compute:
				pos := pathString(path)
				if n.Out == nil || n.Stmt == nil {
					c.diag("DF1", "", pos, "compute without statement or output buffer")
					continue
				}
				use(n.Out, "compute output")
				checkDims(n.Out, "compute")
				if arr, ok := c.p.Prog.Arrays[n.Out.Array]; ok && arr.Kind == loops.Input {
					c.diag("DF2", n.Out.Array, pos, "compute writes into input array %q", n.Out.Array)
				}
				c.prodPaths[n.Out.Array] = append(c.prodPaths[n.Out.Array], append([]*codegen.Loop(nil), path...))
				for _, f := range n.Factors {
					use(f, "compute factor")
					checkDims(f, "compute")
					if arr, ok := c.p.Prog.Arrays[f.Array]; ok && arr.Kind == loops.Output {
						c.diag("DF3", f.Array, pos, "output array %q consumed as a compute factor", f.Array)
					}
					c.consPaths[f.Array] = append(c.consPaths[f.Array], append([]*codegen.Loop(nil), path...))
				}
			}
		}
	}
	walk(c.p.Body, true)
}

// bufferMatches reports whether b buffers disk array da: the same array,
// and per dimension the array's own index, so its sections are boxes of
// the array.
func bufferMatches(b *codegen.Buffer, da codegen.DiskArray) bool {
	if b.Array != da.Name || len(b.Dims) != len(da.Dims) || len(b.Dims) != len(da.Indices) {
		return false
	}
	for i, d := range b.Dims {
		if d.Index != da.Indices[i] {
			return false
		}
	}
	return true
}

func bufIndices(b *codegen.Buffer) []string {
	out := make([]string, len(b.Dims))
	for i, d := range b.Dims {
		out[i] = d.Index
	}
	return out
}

// checkBlock enforces R3, mirroring the NLP encoding's block constraints:
// every candidate read/write buffer, at full tile extent, must be at least
// the machine's minimum block size, clamped to the array's total size (an
// array smaller than the minimum block moves whole).
func (c *checker) checkBlock(n *codegen.IO, da codegen.DiskArray, declared bool, pos string) {
	minBytes := c.p.Cfg.Disk.MinWriteBlock
	kind := "write"
	if n.Read {
		minBytes = c.p.Cfg.Disk.MinReadBlock
		kind = "read"
	}
	if minBytes <= 0 {
		return
	}
	if declared {
		if ab := c.arrayBytes(da); minBytes > ab {
			minBytes = ab
		}
	}
	got := c.bufElems(n.Buffer) * c.p.Cfg.ElemSize
	if got < minBytes {
		c.diag("R3", n.Array, pos,
			"%s of buffer %q moves %d bytes, below the minimum %s block of %d", kind, n.Buffer.Name, got, kind, minBytes)
	}
}

// checkRedundantWrite enforces DF5: a disk write enclosed by a loop that
// does not index its buffer repeats (accumulates over) that loop, so each
// written tile must first be read back and the array zero-initialized.
func (c *checker) checkRedundantWrite(n *codegen.IO, da codegen.DiskArray, declared bool,
	path []*codegen.Loop, readBufs, seenRead map[*codegen.Buffer]bool) {
	dims := map[string]bool{}
	for _, d := range n.Buffer.Dims {
		dims[d.Index] = true
	}
	var redundant []string
	for _, l := range path {
		if !dims[l.Index] {
			redundant = append(redundant, l.Index)
		}
	}
	if len(redundant) == 0 {
		return
	}
	pos := pathString(path)
	if !readBufs[n.Buffer] || !seenRead[n.Buffer] {
		c.diag("DF5", n.Array, pos,
			"write of %q accumulates over redundant loop(s) %s without a read-back of buffer %q",
			n.Array, strings.Join(redundant, ","), n.Buffer.Name)
		return
	}
	if declared && !da.NeedsInit {
		c.diag("DF5", n.Array, pos,
			"write of %q accumulates over redundant loop(s) %s but the array is not zero-initialized",
			n.Array, strings.Join(redundant, ","))
	}
}

// ---------------------------------------------------------------------------
// DF4: intermediate I/O at or below the producer/consumer LCA.

// lca checks that every disk I/O (and buffer zero-fill) of an intermediate
// array is nested at or below the lowest common ancestor loop of the
// compute that produces the intermediate and the compute that consumes it.
// The LCA path is re-derived by pointer identity over the concrete loop
// nodes, independently of the tiling paths the enumerator used.
func (c *checker) lca() {
	for name, arr := range c.p.Prog.Arrays {
		if arr.Kind != loops.Intermediate {
			continue
		}
		all := append(append([][]*codegen.Loop{}, c.prodPaths[name]...), c.consPaths[name]...)
		if len(all) == 0 {
			continue
		}
		lcaPath := all[0]
		for _, p := range all[1:] {
			lcaPath = commonPrefix(lcaPath, p)
		}
		for _, site := range c.ioPaths[name] {
			if !hasPrefix(site.path, lcaPath) {
				c.diag("DF4", name, pathString(site.path),
					"%s of intermediate %q placed outside the producer/consumer common loop nest %q",
					site.desc, name, pathString(lcaPath))
			}
		}
	}
}

func commonPrefix(a, b []*codegen.Loop) []*codegen.Loop {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[:i]
		}
	}
	return a[:n]
}

func hasPrefix(path, prefix []*codegen.Loop) bool {
	if len(path) < len(prefix) {
		return false
	}
	for i, l := range prefix {
		if path[i] != l {
			return false
		}
	}
	return true
}
