package exec

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/disk"
	"repro/internal/expr"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/tensor"
)

// This file holds the oracle of the stride-compiled compute kernel: the
// point interpreter the kernel replaced, kept test-only, a tiny plan
// interpreter around it, and the differential tests that hold the kernel to
// its bits.

// refBlock runs a compute block the way compute.go did before the kernel:
// it visits the intra-tile index space point by point in c.Intra order and
// re-derives every operand's full multi-dimensional offset at every point.
// The products are rounded before they are added, which is what the parent
// commit computes on amd64 and what the kernel's summation rule states.
func refBlock(c *codegen.Compute, ranges, tiles, base map[string]int64, outInst binding, facInsts []binding) {
	extents := make([]int64, len(c.Intra))
	bases := make([]int64, len(c.Intra))
	intraPos := map[string]int{}
	for i, x := range c.Intra {
		bases[i] = base[x]
		extents[i] = min(tiles[x], ranges[x]-base[x])
		intraPos[x] = i
	}
	idx := make([]int64, len(c.Intra))
	compileRef := func(buf *codegen.Buffer, inst binding) refRef {
		cr := refRef{data: inst.t.Data()}
		for i, d := range buf.Dims {
			rd := refDim{size: inst.t.Dim(i), con: base[d.Index] - inst.base[i]}
			if j, isIntra := intraPos[d.Index]; isIntra {
				rd.src = &idx[j]
				rd.con = bases[j] - inst.base[i]
			}
			cr.dims = append(cr.dims, rd)
		}
		return cr
	}
	out := compileRef(c.Out, outInst)
	var refs []refRef
	for i, f := range c.Factors {
		refs = append(refs, compileRef(f, facInsts[i]))
	}
	for {
		prod := 1.0
		for i := range refs {
			prod = float64(prod * refs[i].data[refs[i].offset()])
		}
		out.data[out.offset()] += prod

		d := len(idx) - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < extents[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// refRef is a buffer reference with addressing resolved to pointers into
// the intra index vector plus constant offsets.
type refRef struct {
	data []float64
	dims []refDim
}

type refDim struct {
	size int
	src  *int64 // intra index source, nil for loop-invariant dims
	con  int64  // constant offset (global base minus buffer base)
}

func (r *refRef) offset() int {
	off := int64(0)
	for i := range r.dims {
		v := r.dims[i].con
		if r.dims[i].src != nil {
			v += *r.dims[i].src
		}
		off = off*int64(r.dims[i].size) + v
	}
	return int(off)
}

// refRun executes a plan with every disk array held whole in memory, one
// instance per buffer, and refBlock for the compute blocks: no scheduler,
// no backend, no kernel.
func refRun(p *codegen.Plan, inputs map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	arrays := map[string]*tensor.Tensor{}
	for _, da := range p.DiskArrays {
		dims := make([]int, len(da.Dims))
		for i, d := range da.Dims {
			dims[i] = int(d)
		}
		arrays[da.Name] = tensor.New(dims...)
		if da.Kind == loops.Input {
			copy(arrays[da.Name].Data(), inputs[da.Name].Data())
		}
	}
	base := map[string]int64{}
	bufs := map[*codegen.Buffer]binding{}
	section := func(buf *codegen.Buffer) (lo64 []int64, lo, shape []int) {
		for _, d := range buf.Dims {
			l, n := base[d.Index], int64(1)
			switch d.Class {
			case placement.ExtTile:
				n = min(p.Tiles[d.Index], p.Prog.Ranges[d.Index]-l)
			case placement.ExtFull:
				l, n = 0, p.Prog.Ranges[d.Index]
			}
			lo64, lo, shape = append(lo64, l), append(lo, int(l)), append(shape, int(n))
		}
		return lo64, lo, shape
	}
	var walk func(ns []codegen.Node)
	walk = func(ns []codegen.Node) {
		for _, n := range ns {
			switch n := n.(type) {
			case *codegen.Loop:
				for b := int64(0); b < n.Range; b += n.Tile {
					base[n.Index] = b
					walk(n.Body)
				}
				delete(base, n.Index)
			case *codegen.IO:
				if n.Read {
					lo64, lo, shape := section(n.Buffer)
					bufs[n.Buffer] = binding{t: arrays[n.Array].ExtractBlock(lo, shape), base: lo64}
					continue
				}
				b := bufs[n.Buffer]
				lo := make([]int, len(b.base))
				for i, x := range b.base {
					lo[i] = int(x)
				}
				arrays[n.Array].InsertBlock(b.t, lo)
			case *codegen.ZeroBuf:
				lo64, _, shape := section(n.Buffer)
				bufs[n.Buffer] = binding{t: tensor.New(shape...), base: lo64}
			case *codegen.InitPass:
				arrays[n.Array].Zero()
			case *codegen.Compute:
				facs := make([]binding, len(n.Factors))
				for i, f := range n.Factors {
					facs[i] = bufs[f]
				}
				refBlock(n, p.Prog.Ranges, p.Tiles, base, bufs[n.Out], facs)
			}
		}
	}
	walk(p.Body)
	outs := map[string]*tensor.Tensor{}
	for _, da := range p.DiskArrays {
		if da.Kind == loops.Output {
			outs[da.Name] = arrays[da.Name]
		}
	}
	return outs
}

// fourIndexCase is the four-index transform under tiles that leave a
// partial tile in most dimensions.
func fourIndexCase(t *testing.T, n, v int64, seed int64, tiles map[string]int64) schedCase {
	cfg := machine.Small(1 << 22)
	p := buildProblem(t, loops.FourIndexAbstract(n, v), cfg)
	plan, err := codegen.Generate(p, p.Encode(tiles, nil))
	if err != nil {
		t.Fatal(err)
	}
	return schedCase{name: fmt.Sprintf("four-index %dx%d", n, v), plan: plan, cfg: cfg,
		inputs: expr.RandomInputs(expr.FourIndexTransform(n, v), seed), out: "B"}
}

// TestKernelMatchesPointLoopOnPlans is the whole-engine half of the
// differential test: every schedule and worker count must reproduce, bit
// for bit, what the point interpreter computes for the same plan — all 16
// generated programs (two- and three-factor statements, up to two
// contracted loops), the two-index transform with a partial tile in every
// dimension under a spread of placements, and two four-index transforms.
func TestKernelMatchesPointLoopOnPlans(t *testing.T) {
	cases := progenCases(t)
	for i, tc := range twoIndexCases(t) {
		if tc.resume && i%16 == 0 {
			cases = append(cases, tc)
		}
	}
	cases = append(cases,
		fourIndexCase(t, 6, 5, 2, map[string]int64{"p": 3, "q": 4, "r": 2, "s": 5, "a": 2, "b": 3, "c": 4, "d": 2}),
		fourIndexCase(t, 13, 11, 5, map[string]int64{"p": 5, "q": 13, "r": 4, "s": 7, "a": 6, "b": 3, "c": 11, "d": 2}))
	for _, tc := range cases {
		want := refRun(tc.plan, tc.inputs)[tc.out]
		for _, workers := range []int{1, 2, 4, 7} {
			for _, pipeline := range []bool{false, true} {
				be := disk.NewSim(tc.cfg.Disk, true)
				res, err := Run(tc.plan, be, tc.inputs, Options{Workers: workers, Pipeline: pipeline})
				if err != nil {
					t.Fatalf("%s workers %d pipeline=%v: %v", tc.name, workers, pipeline, err)
				}
				be.Close()
				bitIdentical(t, res.Outputs[tc.out], want, fmt.Sprintf("%s workers %d pipeline=%v vs point loop", tc.name, workers, pipeline))
			}
		}
	}
}

// blockSpec describes one hand-made compute block. Index lists are
// space-separated; in an operand, a trailing '*' marks a dimension the
// buffer holds at full range (bound at base 0) rather than at tile extent.
type blockSpec struct {
	name      string
	intra     string
	rng, tile []int64  // per intra index
	operands  []string // the output, then the factors
}

// blockFixture is a serial engine positioned at the last tile of every
// loop (partial wherever the tile does not divide the range) with the
// block's buffers bound to random data.
type blockFixture struct {
	e        *engine
	c        *codegen.Compute
	operands []binding
}

// newBlockFixture builds the fixture; every buffer's storage starts shift
// elements into its backing array, which moves its alignment by 8·shift
// bytes.
func newBlockFixture(tb testing.TB, spec blockSpec, workers, shift int) *blockFixture {
	tb.Helper()
	intra := strings.Fields(spec.intra)
	ranges, tiles, base := map[string]int64{}, map[string]int64{}, map[string]int64{}
	for j, x := range intra {
		ranges[x], tiles[x] = spec.rng[j], spec.tile[j]
		base[x] = (spec.rng[j] - 1) / spec.tile[j] * spec.tile[j]
	}
	rng := rand.New(rand.NewSource(int64(len(spec.name))))
	f := &blockFixture{c: &codegen.Compute{Intra: intra}}
	var bufs []*codegen.Buffer
	for r, op := range spec.operands {
		buf := &codegen.Buffer{Name: fmt.Sprintf("op%d", r)}
		b := binding{}
		var dims []int
		n := 1
		for _, x := range strings.Fields(op) {
			d := placement.BufDim{Index: strings.TrimSuffix(x, "*"), Class: placement.ExtTile}
			lo, ext := base[d.Index], min(tiles[d.Index], ranges[d.Index]-base[d.Index])
			if strings.HasSuffix(x, "*") {
				d.Class, lo, ext = placement.ExtFull, 0, ranges[d.Index]
			}
			buf.Dims = append(buf.Dims, d)
			b.base = append(b.base, lo)
			dims = append(dims, int(ext))
			n *= int(ext)
		}
		data := make([]float64, n+shift)[shift:]
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		b.t = tensor.FromData(data, dims...)
		bufs = append(bufs, buf)
		f.operands = append(f.operands, b)
	}
	f.c.Out, f.c.Factors = bufs[0], bufs[1:]
	plan := &codegen.Plan{Prog: loops.NewProgram(spec.name, ranges), Cfg: machine.Small(1 << 20), Tiles: tiles, Body: []codegen.Node{f.c}}
	f.e = newEngine(context.Background(), plan, nil, Options{Workers: workers})
	f.e.base = base
	for r, buf := range bufs {
		f.e.sched.bufs[buf] = &pipeBuf{slots: [2]*pslot{{binding: f.operands[r]}}}
	}
	return f
}

// run executes the block once through the scheduler, as a plan's walker
// would.
func (f *blockFixture) run(tb testing.TB) {
	if err := f.e.sched.compute(f.c); err != nil {
		tb.Fatal(err)
	}
}

// reference runs the point loop (over intra, c.Intra when nil) on a copy
// of the output and returns the copy.
func (f *blockFixture) reference(intra []string) *tensor.Tensor {
	c := *f.c
	if intra != nil {
		c.Intra = intra
	}
	out := binding{t: f.operands[0].t.Clone(), base: f.operands[0].base}
	refBlock(&c, f.e.plan.Prog.Ranges, f.e.plan.Tiles, f.e.base, out, f.operands[1:])
	return out.t
}

// benchPlanBlocks are the four compute blocks of the fourindex-files
// benchmark plan (24×24, tiles a:12 b:2 c:1 d:24 p:1 q:2 r:8 s:4), with the
// buffer layouts the solver chose.
var benchPlanBlocks = []blockSpec{
	{"mode-p", "a s r q p", []int64{24, 24, 24, 24, 24}, []int64{12, 4, 8, 2, 1},
		[]string{"a q r s", "p* q* r* s", "p* a*"}},
	{"mode-q", "a s r q b", []int64{24, 24, 24, 24, 24}, []int64{12, 4, 8, 2, 2},
		[]string{"a b* r s", "a q r s", "q* b*"}},
	{"mode-r", "a s r b c", []int64{24, 24, 24, 24, 24}, []int64{12, 4, 8, 2, 1},
		[]string{"a b* c* s", "a b* r s", "r* c*"}},
	{"mode-s", "a s b c d", []int64{24, 24, 24, 24, 24}, []int64{12, 4, 2, 1, 24},
		[]string{"a b* c* d*", "a b* c* s", "s* d*"}},
}

func gemmBlockSpec(m, k, n int64) blockSpec {
	return blockSpec{fmt.Sprintf("gemm-%dx%dx%d", m, k, n), "i k j", []int64{m, k, n}, []int64{m, k, n},
		[]string{"i j", "i k", "k j"}}
}

// kernelBlocks are the shapes the block-level differential test adds to the
// benchmark plan's: each names the kernel path it is there for.
var kernelBlocks = []blockSpec{
	{"three-factor", "i k j", []int64{7, 9, 11}, []int64{4, 9, 6}, []string{"i j", "i k*", "k* j", "j*"}},
	{"scalar", "", nil, nil, []string{"", "", ""}},
	{"single-point", "i j", []int64{5, 4}, []int64{1, 1}, []string{"i j", "i* j*", "j"}},
	{"longest-loop-contracted", "i k", []int64{3, 37}, []int64{3, 37}, []string{"i", "i k", "k"}},
	{"two-contracted-first-blocked", "i k l j", []int64{3, 70, 5, 4}, []int64{3, 70, 5, 4},
		[]string{"i j", "i k l", "l k j"}},
	{"two-contracted-second-long", "i k l", []int64{3, 4, 70}, []int64{3, 4, 70}, []string{"i", "i k l", "k l"}},
	{"copy-transpose", "i j", []int64{9, 7}, []int64{5, 4}, []string{"j i", "i* j*"}},
	{"diagonal", "i", []int64{6}, []int64{4}, []string{"i", "i i", "i*"}},
	gemmBlockSpec(70, 65, 66), // every loop blocked, every last block partial
}

// TestKernelMatchesPointLoopOnBlocks is the block-level half of the
// differential test: hand-made blocks aimed at each kernel path, run
// through the scheduler at every worker count, against the point loop.
func TestKernelMatchesPointLoopOnBlocks(t *testing.T) {
	for _, spec := range append(benchPlanBlocks, kernelBlocks...) {
		for _, workers := range []int{1, 2, 4, 7} {
			f := newBlockFixture(t, spec, workers, 0)
			want := f.reference(nil)
			f.run(t)
			bitIdentical(t, f.operands[0].t, want, fmt.Sprintf("%s workers %d vs point loop", spec.name, workers))
		}
	}
}

// TestKernelKeepsContractedOrder shows the differential test enforces the
// summation rule: the point loop with two contracted loops exchanged
// produces different bits, so a kernel that reordered them would fail
// TestKernelMatchesPointLoopOnBlocks.
func TestKernelKeepsContractedOrder(t *testing.T) {
	var spec blockSpec
	for _, s := range kernelBlocks {
		if s.name == "two-contracted-first-blocked" {
			spec = s
		}
	}
	f := newBlockFixture(t, spec, 1, 0)
	swapped := f.reference([]string{"i", "l", "k", "j"})
	f.run(t)
	got, other := f.operands[0].t.Data(), swapped.Data()
	differ := 0
	for i := range got {
		if got[i] != other[i] {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("exchanging the contracted loops k and l left every output bit unchanged: the block cannot tell summation orders apart")
	}
}

// TestKernelZeroAllocsPerBlock is the allocation gate: once a run has
// lowered its compute blocks, clipping, binding and running one at
// Workers=1 on the serial schedule allocates nothing.
func TestKernelZeroAllocsPerBlock(t *testing.T) {
	for _, spec := range append(benchPlanBlocks, kernelBlocks...) {
		f := newBlockFixture(t, spec, 1, 0)
		if allocs := testing.AllocsPerRun(20, func() { f.run(t) }); allocs != 0 {
			t.Errorf("%s: %v allocations per block, want 0", spec.name, allocs)
		}
	}
}

// BenchmarkComputeKernel times one compute block through the scheduler
// (clip, bind, kernel) for the benchmark plan's four block shapes and two
// GEMM-shaped blocks. Each runs with its buffers at two alignments, 32
// bytes apart: PR 13 saw the old interpreter swing ±12 % with nothing but
// placement changing, and a number that only holds at one alignment is not
// a number.
func BenchmarkComputeKernel(b *testing.B) {
	for _, spec := range append(benchPlanBlocks, gemmBlockSpec(64, 64, 64), gemmBlockSpec(256, 256, 256)) {
		for _, shift := range []int{0, 4} {
			b.Run(fmt.Sprintf("%s/align+%d", spec.name, shift), func(b *testing.B) {
				f := newBlockFixture(b, spec, 1, shift)
				f.run(b)
				points := f.e.kernels[f.c].blk.Points()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.run(b)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*points), "ns/point")
			})
		}
	}
}
