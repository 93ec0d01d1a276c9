package tensor

import (
	"slices"
	"sync"
)

// gemmBlock is the cache-blocking factor of the in-memory kernel. The
// paper performs all in-memory tile products with BLAS matrix-matrix
// kernels; Contraction, blocked by this factor, plays that role.
const gemmBlock = 64

// Contraction is the in-memory multiply-accumulate kernel
//
//	out[…] += Π_f factor_f[…]
//
// over a rectangular index space in which one step of an index advances
// every operand by a constant number of elements (0 for an operand the
// index does not address). An index is free when it addresses the output
// and contracted (summed over) otherwise. The index list and which indices
// are free are fixed when the Contraction is made; extents, strides,
// origins and data arrive per Block, so one Contraction serves every tile
// of a statement, partial tiles included. Run allocates nothing on one
// worker; split across workers, it allocates their goroutines only, the
// workers' own kernels being made on the first split and kept.
//
// Summation rule. For every output element, the products are added one at
// a time, in ascending lexicographic order of the contracted indices taken
// in index-list order, into a single accumulator that starts from the
// element's current value; each product is the factors multiplied left to
// right and rounded to float64 before it is added (no fused multiply-add).
// Free loops are permuted, blocked and split across workers at will — that
// only changes which output element is worked on when. Contracted loops
// never change their relative order and never get a second accumulator.
// The result is therefore the bits of the plain loop nest in index-list
// order, whatever the extents, strides, blocking or worker count.
//
// Run plans the nest per block from the block's strides:
//
//   - Order. Loops of extent 1 are dropped. The rest go outermost-first in
//     order of descending total stride (the sum over operands of the
//     elements a step moves); the contracted loops are then put back in
//     index-list order on the slots they landed in, so they may interleave
//     with free loops but never pass each other.
//   - Coalesce. Two adjacent loops, both free or both contracted (adjacent
//     contracted loops are consecutive in index-list order), merge into one
//     when for every operand the outer one's stride is the inner one's
//     trips times its stride: the merged loop walks the same elements in
//     the same order.
//   - Innermost. Of the admissible loops — any free loop, or the one
//     holding the last contracted index, the only contracted loop that may
//     move inwards — the one with the most trips per operand that jumps
//     along it (stride other than 0 or 1) runs innermost: a loop no operand
//     jumps along beats any that one does, the longer one among those, and
//     a tie goes to the later loop. When it moves the output at unit
//     stride, the last contracted loop moves in right around it, past free
//     loops only. Loops merge again around their new places.
//   - Blocks. Free loops, and the loop holding the first contracted index,
//     longer than gemmBlock are walked gemmBlock at a time by block loops
//     hoisted outermost, so a GEMM-shaped block runs as a blocked dgemm.
//     Hoisting the first contracted loop's block loop leaves the contracted
//     order intact; hoisting a later one would not, so later contracted
//     loops run whole.
//   - Leaf. In a two-factor nest one function, picked per plan, runs the two
//     innermost loops with the operands' offsets in locals. When one of them
//     moves the output and the other leaves it in place, four outputs at a
//     time are held in registers over the loop that leaves them in place
//     (dot products four at a time, or axpys under a contracted loop without
//     a store and reload per trip); when neither moves it, the one output is
//     held over both; otherwise each product updates its output in memory.
//     A leaf under a block loop, or alone, runs one trip of its outer loop,
//     so a lone loop that leaves the output in place is a dot product in a
//     register. Unit strides with the first or the second factor fixed have
//     leaves of their own; on amd64 they are SSE2 kernels, two lanes per
//     instruction, each lane rounding its product and adding it to its own
//     output's accumulator as the Go loops do. A held one of these also
//     runs the level above it when that level is a loop rather than a
//     block loop, so one call covers three levels. Outer loops advance the
//     offsets incrementally.
//
// A block whose extents and strides equal the previous block's reuses its
// nest: full tiles repeat. A block with an extent of 0 has no points, and
// Run does nothing with it. Before it runs, any other block is checked to
// lie inside each operand's data; the output must not share storage with
// a factor, and no two free points may address one output element.
//
// A Contraction holds the planned nest as scratch: it is not safe for
// concurrent Runs.
type Contraction struct {
	free []bool
	refs int // operands: the output, then the factors

	lv  []level // the planned nest, outermost first
	st  []int   // backing of the levels' strides
	off []int   // running offsets of the N-factor nest, one row per level
	// leaf runs the two innermost levels of a two-factor nest; fold, when
	// not nil, runs them with the plain loop around them.
	leaf leafFunc
	fold foldFunc

	// Planning scratch: the block's loops in nest order, the contracted ones
	// in index-list order, the loops' strides, and per loop the position of
	// its block loop in lv (-1: none).
	loops, con []loop
	loopSt     []int
	at         []int
	// ext and stride are the extents and strides lv was planned for (lv is
	// empty until the first plan); lo and hi hold, per operand, the lowest
	// and highest offset from its start that the nest reaches.
	ext, stride []int
	lo, hi      []int
	// empty marks an extent below 1 in ext: the block has no points.
	empty bool

	// wk are the kernels of the workers a block is split across, made on
	// the first split and kept.
	wk []worker
	wg sync.WaitGroup
}

// level is one loop of the planned nest.
type level struct {
	n int   // trips
	s []int // elements each operand advances per trip
	// A block loop (sub > 0) walks its index gemmBlock at a time: before
	// each trip it clips the trip count of level sub to what is left of
	// span.
	sub, span int
}

// loop is one loop of a block while it is planned: an index of extent > 1,
// or several merged.
type loop struct {
	n   int
	s   []int // elements each operand advances per trip
	tot int   // Σ s
	// con marks a contracted loop; first and last mark the loops holding
	// the first and the last contracted index of the block.
	con, first, last bool
}

// worker is one goroutine's share of a split block: its own kernel, and
// the extents and origins of its range.
type worker struct {
	c          *Contraction
	ext, start []int
}

// Block is one instance of a Contraction's nest.
type Block struct {
	// Ext is the extent of each index.
	Ext []int
	// Stride holds, operand-major, the elements operand r advances per step
	// of index d at Stride[r*len(Ext)+d]; operand 0 is the output.
	Stride []int
	// Start is each operand's element offset at the nest's origin.
	Start []int
	// Data is each operand's storage.
	Data [][]float64
}

// NewContraction returns the kernel of a nest with one index per element of
// free (true: the index addresses the output) and the given number of
// factors.
func NewContraction(free []bool, factors int) *Contraction {
	nd, refs := len(free), factors+1
	levels := 2*nd + 1 // a block loop and a loop per index, or the lone point
	off := 0           // the two-factor nest keeps its offsets in locals
	if refs != 3 {
		off = levels * refs
	}
	ints, loops := make([]int, levels*refs+off+2*nd*refs+2*nd+2*refs), make([]loop, 2*nd)
	carve := func(n int) []int {
		s := ints[:n:n]
		ints = ints[n:]
		return s
	}
	return &Contraction{
		free:   append([]bool(nil), free...),
		refs:   refs,
		lv:     make([]level, 0, levels),
		st:     carve(levels * refs)[:0],
		off:    carve(off),
		loops:  loops[:0:nd],
		con:    loops[nd:nd],
		loopSt: carve(nd * refs),
		at:     carve(nd),
		ext:    carve(nd),
		stride: carve(nd * refs),
		lo:     carve(refs),
		hi:     carve(refs),
	}
}

// NewBlock returns a zeroed Block sized for c.
func (c *Contraction) NewBlock() *Block {
	nd := len(c.free)
	ints := make([]int, nd+c.refs*nd+c.refs)
	return &Block{
		Ext:    ints[:nd:nd],
		Stride: ints[nd : nd+c.refs*nd : nd+c.refs*nd],
		Start:  ints[nd+c.refs*nd:],
		Data:   make([][]float64, c.refs),
	}
}

// Points returns the number of index points of the block.
func (b *Block) Points() int64 {
	pts := int64(1)
	for _, n := range b.Ext {
		pts *= int64(n)
	}
	return pts
}

// Run executes the block. With workers > 1 the longest free loop is split
// into contiguous ranges, one goroutine each: workers then own disjoint
// output elements, and the summation rule makes the split invisible in the
// result.
func (c *Contraction) Run(b *Block, workers int) {
	split := -1
	if workers > 1 {
		for d, n := range b.Ext {
			if c.free[d] && n >= 2 && (split < 0 || n > b.Ext[split]) {
				split = d
			}
		}
	}
	if split < 0 {
		c.run(b.Ext, b.Start, b)
		return
	}
	nd, n := len(b.Ext), b.Ext[split]
	workers = min(workers, n)
	for len(c.wk) < workers {
		c.wk = append(c.wk, worker{c: NewContraction(c.free, c.refs-1), ext: make([]int, nd), start: make([]int, c.refs)})
	}
	c.wg.Add(workers)
	for w := range c.wk[:workers] {
		wk := &c.wk[w]
		lo, hi := n*w/workers, n*(w+1)/workers
		copy(wk.ext, b.Ext)
		wk.ext[split] = hi - lo
		for r := range wk.start {
			wk.start[r] = b.Start[r] + lo*b.Stride[r*nd+split]
		}
		go wk.run(b, &c.wg)
	}
	c.wg.Wait()
}

// run executes the worker's range of b.
func (w *worker) run(b *Block, wg *sync.WaitGroup) {
	defer wg.Done()
	w.c.run(w.ext, w.start, b)
}

// run plans the nest for the given extents, unless the last block had the
// same extents and strides, and executes it from the given origin. It
// first checks that every element the nest reaches lies inside its
// operand's data, which is what lets the leaves run without checks of
// their own.
func (c *Contraction) run(ext, start []int, b *Block) {
	if len(c.lv) == 0 || !slices.Equal(ext, c.ext) || !slices.Equal(b.Stride, c.stride) {
		c.plan(ext, b.Stride)
		copy(c.ext, ext)
		copy(c.stride, b.Stride)
	}
	if c.empty {
		return
	}
	for r, d := range b.Data[:c.refs] {
		_, _ = d[start[r]+c.lo[r]], d[start[r]+c.hi[r]]
	}
	if c.refs == 3 {
		o, x, y, out, fx, fy := start[0], start[1], start[2], b.Data[0], b.Data[1], b.Data[2]
		switch len(c.lv) {
		case 1:
			in := &c.lv[0]
			c.leaf(1, in.n, o, x, y, 0, 0, 0, in.s[0], in.s[1], in.s[2], out, fx, fy)
		case 2:
			c.leaf2(o, x, y, out, fx, fy)
		default:
			c.nest2(0, o, x, y, out, fx, fy)
		}
		return
	}
	copy(c.off, start)
	c.nestN(0, b.Data)
}

// plan lays the nest out in c.lv (see the type's doc comment).
func (c *Contraction) plan(ext, stride []int) {
	nd, refs := len(ext), c.refs
	c.empty = slices.ContainsFunc(ext, func(n int) bool { return n < 1 })
	for r := range refs {
		c.lo[r], c.hi[r] = 0, 0
		for d, n := range ext {
			// A loop of extent 1 is dropped: the nest takes one trip. A
			// block with an extent of 0 runs nothing, so its bounds go
			// unchecked.
			x := max(n-1, 0) * stride[r*nd+d]
			c.lo[r] += min(x, 0)
			c.hi[r] += max(x, 0)
		}
	}
	lastCon := -1
	for d, n := range ext {
		if n > 1 && !c.free[d] {
			lastCon = d
		}
	}
	c.loops, c.con = c.loops[:0], c.con[:0]
	for d, n := range ext {
		if n <= 1 {
			continue
		}
		l := loop{n: n, s: c.loopSt[d*refs : (d+1)*refs : (d+1)*refs]}
		for r := range l.s {
			l.s[r] = stride[r*nd+d]
			l.tot += l.s[r]
		}
		if !c.free[d] {
			l.con, l.first, l.last = true, len(c.con) == 0, d == lastCon
			c.con = append(c.con, l)
		}
		c.loops = append(c.loops, l)
	}

	// Order by descending total stride (stable), then put the contracted
	// loops back in index-list order on the slots they landed in.
	ls := c.loops
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].tot > ls[j-1].tot; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	for i, j := 0, 0; i < len(ls); i++ {
		if ls[i].con {
			ls[i] = c.con[j]
			j++
		}
	}
	ls = coalesce(ls)

	// The innermost loop moves to the end; it may then merge with the loop
	// it lands after.
	inner := -1
	for i := range ls {
		if (!ls[i].con || ls[i].last) && (inner < 0 || !worseInner(&ls[i], &ls[inner])) {
			inner = i
		}
	}
	if inner >= 0 {
		moveTo(ls, inner, len(ls)-1)
		// When the innermost loop moves the output at unit stride, the last
		// contracted loop goes right around it, so the leaf can hold
		// outputs in registers across it; it passes free loops only.
		if n := len(ls); ls[n-1].s[0] == 1 {
			for i := n - 2; i >= 0; i-- {
				if ls[i].last {
					moveTo(ls, i, n-2)
					break
				}
			}
		}
	}
	ls = coalesce(ls)

	c.lv, c.st = c.lv[:0], c.st[:0]
	for i := range ls {
		c.at[i] = -1
		if l := &ls[i]; l.n > gemmBlock && (!l.con || l.first) {
			c.at[i] = len(c.lv)
			c.push(level{n: (l.n + gemmBlock - 1) / gemmBlock, span: l.n}, l.s, gemmBlock)
		}
	}
	for i := range ls {
		if at := c.at[i]; at >= 0 {
			c.lv[at].sub = len(c.lv)
		}
		c.push(level{n: ls[i].n}, ls[i].s, 1)
	}
	if len(ls) == 0 {
		// Every extent is 1: the nest is a single point.
		c.push(level{n: 1}, nil, 0)
	}
	if c.refs == 3 {
		// The leaf's outer loop holds the output in place when it leaves it
		// there and is a loop: a block loop, or none, runs the leaf one trip
		// at a time.
		n := len(c.lv)
		holds := n > 1 && c.lv[n-2].sub == 0 && c.lv[n-2].s[0] == 0
		in := &c.lv[n-1]
		c.leaf, c.fold = leafFor(holds, in.s[0], in.s[1], in.s[2])
	}
}

// worseInner reports whether loop a makes a worse innermost loop than b:
// fewer trips per operand that jumps along it, a loop no operand jumps
// along beating any that one does.
func worseInner(a, b *loop) bool {
	ja, jb := jumps(a.s), jumps(b.s)
	if ja == 0 || jb == 0 {
		return ja > jb || ja == jb && a.n < b.n
	}
	return a.n*jb < b.n*ja
}

// jumps counts the operands that move by more than one element per trip.
func jumps(s []int) int {
	j := 0
	for _, x := range s {
		if x != 0 && x != 1 {
			j++
		}
	}
	return j
}

// moveTo moves ls[from] to position to (from ≤ to), shifting the loops
// between outwards.
func moveTo(ls []loop, from, to int) {
	l := ls[from]
	copy(ls[from:to], ls[from+1:to+1])
	ls[to] = l
}

// coalesce merges each adjacent pair of loops, both free or both
// contracted, whose outer one's stride is the inner one's trips times its
// stride for every operand: the pair then walks the operands as one loop.
func coalesce(ls []loop) []loop {
	for i := 0; i+1 < len(ls); {
		a, b := &ls[i], &ls[i+1]
		if a.con != b.con || !chains(a, b) {
			i++
			continue
		}
		a.n *= b.n
		a.s, a.last = b.s, b.last
		ls = append(ls[:i+1], ls[i+2:]...)
	}
	return ls
}

// chains reports whether outer's strides are inner's trips times inner's
// strides.
func chains(outer, inner *loop) bool {
	for r, s := range inner.s {
		if outer.s[r] != inner.n*s {
			return false
		}
	}
	return true
}

// push appends a level advancing each operand by step times the given
// strides (none: a level that advances nothing).
func (c *Contraction) push(lv level, s []int, step int) {
	base := len(c.st)
	for r := 0; r < c.refs; r++ {
		x := 0
		if s != nil {
			x = step * s[r]
		}
		c.st = append(c.st, x)
	}
	lv.s = c.st[base:len(c.st):len(c.st)]
	c.lv = append(c.lv, lv)
}

// enter prepares trip i of level l: a block loop clips its inner loop.
func (c *Contraction) enter(lv *level, i int) {
	if lv.sub > 0 {
		c.lv[lv.sub].n = min(gemmBlock, lv.span-i*gemmBlock)
	}
}

// nest2 runs the loops from level l down to the innermost of a two-factor
// nest (l is above the two leaf levels) with the operands at offsets o, x
// and y.
func (c *Contraction) nest2(l, o, x, y int, out, fx, fy []float64) {
	lv := &c.lv[l]
	so, sx, sy := lv.s[0], lv.s[1], lv.s[2]
	if l+3 < len(c.lv) {
		for i := 0; i < lv.n; i++ {
			c.enter(lv, i)
			c.nest2(l+1, o, x, y, out, fx, fy)
			o, x, y = o+so, x+sx, y+sy
		}
		return
	}
	// The leaf's two levels. Block loops precede all loops, so with a
	// level above them the outer one is a loop, never a block loop.
	a, b := &c.lv[l+1], &c.lv[l+2]
	if c.fold != nil && lv.sub == 0 {
		// A plain loop clips nothing between its trips: the leaf runs them.
		c.fold(lv.n, a.n, b.n, o, x, y, so, sx, sy, a.s[1], a.s[2], out, fx, fy)
		return
	}
	leaf := c.leaf
	ao, ax, ay, bo, bx, by := a.s[0], a.s[1], a.s[2], b.s[0], b.s[1], b.s[2]
	for i := 0; i < lv.n; i++ {
		c.enter(lv, i)
		leaf(a.n, b.n, o, x, y, ao, ax, ay, bo, bx, by, out, fx, fy)
		o, x, y = o+so, x+sx, y+sy
	}
}

// leaf2 runs a two-factor nest of two levels.
func (c *Contraction) leaf2(o, x, y int, out, fx, fy []float64) {
	lv, in := &c.lv[0], &c.lv[1]
	if lv.sub == 0 {
		c.leaf(lv.n, in.n, o, x, y, lv.s[0], lv.s[1], lv.s[2], in.s[0], in.s[1], in.s[2], out, fx, fy)
		return
	}
	// The block loop of the innermost loop: its trips differ.
	for i := 0; i < lv.n; i++ {
		c.enter(lv, i)
		c.leaf(1, in.n, o, x, y, 0, 0, 0, in.s[0], in.s[1], in.s[2], out, fx, fy)
		o, x, y = o+lv.s[0], x+lv.s[1], y+lv.s[2]
	}
}

// leafFunc is the leaf of a two-factor nest: m trips of an outer loop
// (strides po, px, py), each n multiply-adds along the innermost loop
// (strides so, sx, sy).
type leafFunc func(m, n, o, x, y, po, px, py, so, sx, sy int, out, fx, fy []float64)

// foldFunc is a held leaf with unit strides that also runs the plain loop
// around it: q trips (strides qo, qx, qy) of m trips of the loop that
// leaves the output in place (strides 0, px, py), each n multiply-adds
// along the innermost loop.
type foldFunc func(q, m, n, o, x, y, qo, qx, qy, px, py int, out, fx, fy []float64)

// leafFor returns the leaf for the innermost loop's strides, holds telling
// whether the loop around it leaves the output in place over more than one
// trip, and the leaf's fold, if it has one. When one of the two loops moves
// the output and the other leaves it in place, outputs are taken four at a
// time and held in registers over the loop that leaves them in place; when
// neither moves it, the one output is held over both; otherwise each
// product updates its output in memory. Unit strides with one factor
// fixed, the dgemm inner loop among them, have leaves of their own, free of
// the general loops' per-element index arithmetic and bounds checks; on
// amd64 they run SSE2 kernels, and the held ones fold the loop above them.
func leafFor(holds bool, so, sx, sy int) (leafFunc, foldFunc) {
	switch {
	case so == 0 && holds:
		return sums, nil
	case so == 0:
		return dots, nil
	case holds && so == 1 && sx == 0 && sy == 1:
		return heldFirst, heldFirstFold
	case holds && so == 1 && sx == 1 && sy == 0:
		return heldSecond, heldSecondFold
	case holds:
		return held, nil
	case so == 1 && sx == 0 && sy == 1:
		return axpyFirst, nil
	case so == 1 && sx == 1 && sy == 0:
		return axpySecond, nil
	}
	return axpys, nil
}

// axpys runs m·n multiply-adds along a loop that moves the output, each
// into its output in memory.
func axpys(m, n, o, x, y, po, px, py, so, sx, sy int, out, fx, fy []float64) {
	for ; m > 0; m-- {
		oi, xi, yi := o, x, y
		for k := 0; k < n; k++ {
			out[oi] += float64(fx[xi] * fy[yi])
			oi, xi, yi = oi+so, xi+sx, yi+sy
		}
		o, x, y = o+po, x+px, y+py
	}
}

// dots runs m dot products of n terms, the outer loop moving the output.
func dots(m, n, o, x, y, po, px, py, _, sx, sy int, out, fx, fy []float64) {
	quads(m, n, o, x, y, po, px, py, sx, sy, out, fx, fy)
}

// sums adds m·n products, in loop order, into the one output neither loop
// moves, held in a register.
func sums(m, n, o, x, y, _, px, py, _, sx, sy int, out, fx, fy []float64) {
	acc := out[o]
	for ; m > 0; m-- {
		for k, xi, yi := 0, x, y; k < n; k++ {
			acc += float64(fx[xi] * fy[yi])
			xi, yi = xi+sx, yi+sy
		}
		x, y = x+px, y+py
	}
	out[o] = acc
}

// held runs m trips of a loop that leaves the output in place around n
// multiply-adds along a loop that moves it.
func held(m, n, o, x, y, _, px, py, so, sx, sy int, out, fx, fy []float64) {
	quads(n, m, o, x, y, so, sx, sy, px, py, out, fx, fy)
}

// quads accumulates into nf outputs along a loop with strides fo, fsx,
// fsy, each the sum of nc products along a loop with strides csx, csy that
// leaves the output in place. Four outputs at a time are held in
// registers: each still takes its products in loop order into its one
// accumulator, only without a store and reload per product, and the four
// chains of additions overlap.
func quads(nf, nc, o, x, y, fo, fsx, fsy, csx, csy int, out, fx, fy []float64) {
	for ; nf >= 4; nf -= 4 {
		a0, a1, a2, a3 := out[o], out[o+fo], out[o+2*fo], out[o+3*fo]
		for i, xi, yi := 0, x, y; i < nc; i++ {
			a0 += float64(fx[xi] * fy[yi])
			a1 += float64(fx[xi+fsx] * fy[yi+fsy])
			a2 += float64(fx[xi+2*fsx] * fy[yi+2*fsy])
			a3 += float64(fx[xi+3*fsx] * fy[yi+3*fsy])
			xi, yi = xi+csx, yi+csy
		}
		out[o], out[o+fo], out[o+2*fo], out[o+3*fo] = a0, a1, a2, a3
		o, x, y = o+4*fo, x+4*fsx, y+4*fsy
	}
	for ; nf > 0; nf-- {
		acc := out[o]
		for i, xi, yi := 0, x, y; i < nc; i++ {
			acc += float64(fx[xi] * fy[yi])
			xi, yi = xi+csx, yi+csy
		}
		out[o] = acc
		o, x, y = o+fo, x+fsx, y+fsy
	}
}

// nestN runs levels l.. of a nest with any number of factors; the operands'
// offsets at level l are row l of c.off.
func (c *Contraction) nestN(l int, data [][]float64) {
	lv := &c.lv[l]
	cur := c.off[l*c.refs : (l+1)*c.refs]
	if l == len(c.lv)-1 {
		for k := 0; k < lv.n; k++ {
			p := 1.0
			for r := 1; r < c.refs; r++ {
				p = float64(p * data[r][cur[r]])
			}
			data[0][cur[0]] += p
			for r, s := range lv.s {
				cur[r] += s
			}
		}
		return
	}
	next := c.off[(l+1)*c.refs : (l+2)*c.refs]
	for i := 0; i < lv.n; i++ {
		c.enter(lv, i)
		copy(next, cur)
		c.nestN(l+1, data)
		for r, s := range lv.s {
			cur[r] += s
		}
	}
}
