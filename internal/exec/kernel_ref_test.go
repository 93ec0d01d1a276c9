package exec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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
// Indices after a '/' in intra are held by buffers but not looped over by
// the block, which sees one point of each, at the walker's tile base.
type blockSpec struct {
	name      string
	intra     string
	rng, tile []int64  // per index of intra
	operands  []string // the output, then the factors
}

// blockFixture is a serial engine running a plan that nests the block in
// one loop per index, positioned at the last tile of every loop (partial
// wherever the tile does not divide the range) with the block's buffers
// bound to random data.
type blockFixture struct {
	e        *engine
	c        *codegen.Compute
	k        *kernel
	order    []string         // the loop indices, outermost first
	base     map[string]int64 // the loops' current tile bases
	operands []binding
	rng      *rand.Rand
	shift    int
}

// newBlockFixture builds the fixture; every buffer's storage starts shift
// elements into its backing array, which moves its alignment by 8·shift
// bytes.
func newBlockFixture(tb testing.TB, spec blockSpec, workers, shift int) *blockFixture {
	tb.Helper()
	loop, outer, _ := strings.Cut(spec.intra, "/")
	intra := strings.Fields(loop)
	ranges, tiles, base := map[string]int64{}, map[string]int64{}, map[string]int64{}
	order := append(strings.Fields(loop), strings.Fields(outer)...)
	for j, x := range order {
		ranges[x], tiles[x] = spec.rng[j], spec.tile[j]
		base[x] = (spec.rng[j] - 1) / spec.tile[j] * spec.tile[j]
	}
	f := &blockFixture{c: &codegen.Compute{Intra: intra}, order: order, rng: rand.New(rand.NewSource(int64(len(spec.name)))), shift: shift}
	var bufs []*codegen.Buffer
	for r, op := range spec.operands {
		buf := &codegen.Buffer{Name: fmt.Sprintf("op%d", r)}
		for _, x := range strings.Fields(op) {
			d := placement.BufDim{Index: strings.TrimSuffix(x, "*"), Class: placement.ExtTile}
			if strings.HasSuffix(x, "*") {
				d.Class = placement.ExtFull
			}
			buf.Dims = append(buf.Dims, d)
		}
		bufs = append(bufs, buf)
	}
	f.c.Out, f.c.Factors = bufs[0], bufs[1:]
	body := []codegen.Node{f.c}
	for j := len(order) - 1; j >= 0; j-- {
		x := order[j]
		body = []codegen.Node{&codegen.Loop{Index: x, Range: ranges[x], Tile: tiles[x], Body: body}}
	}
	plan := &codegen.Plan{Prog: loops.NewProgram(spec.name, ranges), Cfg: machine.Small(1 << 20), Tiles: tiles, Body: body}
	f.e = newEngine(context.Background(), plan, nil, Options{Workers: workers})
	st := f.e.top[0]
	for ls, ok := st.(*loopStep); ok; ls, ok = st.(*loopStep) {
		st = ls.body[0]
	}
	f.k = st.(*kernel)
	for _, pb := range f.k.bufs {
		pb.slots[0] = &pslot{}
	}
	f.moveTo(base)
	return f
}

// moveTo positions the walker at the given tile bases and binds every
// buffer to a new instance of random data there.
func (f *blockFixture) moveTo(base map[string]int64) {
	f.base = base
	f.e.bases, f.e.names = f.e.bases[:0], f.e.names[:0]
	for _, x := range f.order {
		f.e.bases, f.e.names = append(f.e.bases, base[x]), append(f.e.names, x)
	}
	f.operands = f.operands[:0]
	p := f.e.plan
	for r, buf := range append([]*codegen.Buffer{f.c.Out}, f.c.Factors...) {
		b := binding{}
		var dims []int
		n := 1
		for _, d := range buf.Dims {
			lo, ext := base[d.Index], min(p.Tiles[d.Index], p.Prog.Ranges[d.Index]-base[d.Index])
			if d.Class == placement.ExtFull {
				lo, ext = 0, p.Prog.Ranges[d.Index]
			}
			b.base = append(b.base, lo)
			dims = append(dims, int(ext))
			n *= int(ext)
		}
		data := make([]float64, n+f.shift)[f.shift:]
		for i := range data {
			data[i] = f.rng.NormFloat64()
		}
		b.t = tensor.FromData(data, dims...)
		f.operands = append(f.operands, b)
		f.k.bufs[r].slots[0].binding = b
	}
}

// run executes the block once through the scheduler, as a plan's walker
// would.
func (f *blockFixture) run(tb testing.TB) {
	if err := f.e.sched.compute(f.k); err != nil {
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
	refBlock(&c, f.e.plan.Prog.Ranges, f.e.plan.Tiles, f.base, out, f.operands[1:])
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

// thinIOBlocks are the two compute blocks of the thin-io-files benchmark
// plans (reduce-strided 500×500×8 and thin-write 2500×2500×2 at their pinned
// tiles), with the buffer layouts their pins give.
var thinIOBlocks = []blockSpec{
	{"reduce-strided", "i j k", []int64{500, 500, 8}, []int64{125, 250, 4}, []string{"i j", "k*", "i j k"}},
	{"thin-write", "i j k", []int64{2500, 2500, 2}, []int64{500, 2500, 2}, []string{"i j", "k* j*", "i* k*"}},
}

// fixedCostBlock is a rank-0 block: one point, so its time is what a block
// costs before and around the kernel's work.
var fixedCostBlock = blockSpec{"fixed-cost", "", nil, nil, []string{"", "", ""}}

// dotBlock is a rank-0 output summed over one contracted loop longer than
// gemmBlock: a lone dot product under its own block loop.
var dotBlock = blockSpec{"dot-100", "k", []int64{100}, []int64{100}, []string{"", "k", "k"}}

// kernelBlocks are the shapes the block-level differential test adds to the
// benchmark plan's: each names the kernel path it is there for. The
// thin-io-files blocks close the list.
var kernelBlocks = append([]blockSpec{
	{"three-factor", "i k j", []int64{7, 9, 11}, []int64{4, 9, 6}, []string{"i j", "i k*", "k* j", "j*"}},
	{"scalar", "", nil, nil, []string{"", "", ""}},
	{"single-point", "i j", []int64{5, 4}, []int64{1, 1}, []string{"i j", "i* j*", "j"}},
	{"longest-loop-contracted", "i k", []int64{3, 37}, []int64{3, 37}, []string{"i", "i k", "k"}},
	{"two-contracted-first-blocked", "i k l j", []int64{3, 70, 5, 4}, []int64{3, 70, 5, 4},
		[]string{"i j", "i k l", "l k j"}},
	// k and l merge into one contracted loop of 280, blocked by 64.
	{"two-contracted-second-long", "i k l", []int64{3, 4, 70}, []int64{3, 4, 70}, []string{"i", "i k l", "k l"}},
	{"copy-transpose", "i j", []int64{9, 7}, []int64{5, 4}, []string{"j i", "i* j*"}},
	{"diagonal", "i", []int64{6}, []int64{4}, []string{"i", "i i", "i*"}},
	gemmBlockSpec(70, 65, 66), // every loop blocked, every last block partial
	// i and j (a partial tile) merge into one free loop of 27 inside k.
	{"coalesced-free-pair", "k i j", []int64{5, 7, 9}, []int64{5, 4, 9}, []string{"i j", "k* i j", "k*"}},
	// k and l merge into one contracted loop of 42, run as dot products.
	{"coalesced-contracted-pair", "i k l", []int64{6, 6, 7}, []int64{4, 6, 7}, []string{"i", "i k l", "k* l*"}},
	// i and j merge into one free loop of 99: blocks of 64 and 35.
	{"coalesced-long-partial", "i j k", []int64{9, 11, 3}, []int64{9, 11, 3}, []string{"i j", "i j k", "k"}},
	// k walks no operand by more than 1 and has the smallest strides, but
	// it is not the last contracted loop: it stays outside j.
	{"output-stride-0-outside", "k j l", []int64{9, 8, 3}, []int64{9, 8, 3}, []string{"j", "l* j k", "l"}},
	// Leaf cases, by the innermost loop's strides and the loop around it.
	{"leaf-first-fixed", "i j", []int64{5, 9}, []int64{5, 9}, []string{"i j", "i", "j*"}},
	{"leaf-second-fixed", "i j", []int64{5, 9}, []int64{5, 9}, []string{"i j", "j*", "i"}},
	{"leaf-held-first-fixed", "k j", []int64{6, 11}, []int64{6, 11}, []string{"j", "k*", "k j"}},
	{"leaf-held-second-fixed", "k j", []int64{6, 11}, []int64{6, 11}, []string{"j", "k j", "k*"}},
	{"leaf-strided", "i j", []int64{5, 7}, []int64{5, 7}, []string{"j i", "i j", "j*"}},
	{"leaf-under-own-block", "i", []int64{100}, []int64{100}, []string{"i", "i", "i*"}},
	{"leaf-single-loop", "i", []int64{10}, []int64{10}, []string{"i", "i", "i*"}},
	dotBlock,
	{"leaf-single-dot", "k", []int64{10}, []int64{10}, []string{"", "k", "k"}},
	// Neither innermost loop moves the output, and they do not merge.
	{"leaf-two-contracted-held", "i k l", []int64{3, 6, 7}, []int64{3, 6, 7}, []string{"i", "k l", "i l k"}},
	// A held unit-stride leaf runs the plain loop above it too (on amd64):
	// a contracted k, with 11 columns (8 + a remainder of 3), held over l;
	// the same with the factors swapped; a free i with 7 columns; and a
	// free i clipped by its block loop (64 + 6 trips), 6 columns.
	{"fold-contracted-level", "k l j", []int64{3, 5, 11}, []int64{3, 5, 11}, []string{"j", "k l j", "l k"}},
	{"fold-first-contracted-level", "k l j", []int64{3, 5, 11}, []int64{3, 5, 11}, []string{"j", "l k", "k l j"}},
	{"fold-free-level", "i l j", []int64{6, 5, 7}, []int64{6, 5, 7}, []string{"i j", "i l j", "l"}},
	{"fold-under-block-loop", "i l j", []int64{70, 3, 6}, []int64{70, 3, 6}, []string{"i j", "i l j", "l"}},
}, thinIOBlocks...)

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

// TestKernelReplansOnStrideChange runs one kernel over full and partial
// tiles of an index the block does not loop over but its output holds
// between two it does: from a full to a partial tile of x the block's
// extents stay the same while the output's strides change, so a kernel
// that reused its nest on equal extents alone would address the wrong
// elements.
func TestKernelReplansOnStrideChange(t *testing.T) {
	spec := blockSpec{"replan", "i j / x", []int64{9, 7, 5}, []int64{5, 7, 3}, []string{"i x j", "i j", "j*"}}
	f := newBlockFixture(t, spec, 1, 0)
	for _, i := range []int64{0, 5} {
		for _, x := range []int64{0, 3, 0, 3} {
			f.moveTo(map[string]int64{"i": i, "j": 0, "x": x})
			want := f.reference(nil)
			f.run(t)
			bitIdentical(t, f.operands[0].t, want, fmt.Sprintf("block at i=%d x=%d vs point loop", i, x))
		}
	}
}

// TestKernelSplitAllocsPerWorker is the allocation pin of the worker
// split: the workers' kernels, extents and origins are made on the first
// split and kept, so a block split four ways allocates at most once per
// worker (the goroutine start).
func TestKernelSplitAllocsPerWorker(t *testing.T) {
	const workers = 4
	for _, spec := range benchPlanBlocks {
		f := newBlockFixture(t, spec, workers, 0)
		if allocs := testing.AllocsPerRun(20, func() { f.run(t) }); allocs > workers {
			t.Errorf("%s: %v allocations per block at %d workers, want at most %d", spec.name, allocs, workers, workers)
		}
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
// (clip, bind, kernel) for the four block shapes of the fourindex-files
// plan, the two of the thin-io-files plans, two GEMM-shaped blocks, a lone
// dot product and a rank-0 block, whose one point makes its ns/point the
// fixed cost of a block. Each runs with its buffers at two alignments, 32 bytes apart: the
// old point interpreter swung ±12 % with nothing but placement changing,
// and a number that only holds at one alignment is not a number.
func BenchmarkComputeKernel(b *testing.B) {
	for _, spec := range slices.Concat(benchPlanBlocks, thinIOBlocks,
		[]blockSpec{gemmBlockSpec(64, 64, 64), gemmBlockSpec(256, 256, 256), dotBlock, fixedCostBlock}) {
		for _, shift := range []int{0, 4} {
			b.Run(fmt.Sprintf("%s/align+%d", spec.name, shift), func(b *testing.B) {
				f := newBlockFixture(b, spec, 1, shift)
				f.run(b)
				points := f.k.blk.Points()
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
