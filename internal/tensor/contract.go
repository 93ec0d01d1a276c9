package tensor

import "sync"

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
// of a statement, partial tiles included, and Run allocates nothing.
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
// Run picks the nest per block: loops of extent 1 are dropped; the
// innermost loop is the longest among the free loops and the last
// contracted loop (the only contracted loop that may move inwards) and
// runs as a dot product when the output does not move along it, as an axpy
// otherwise; the remaining loops stay in index-list order around it and
// advance the operands' offsets incrementally. Free loops, and the first
// contracted loop, longer than gemmBlock are walked gemmBlock at a time by
// block loops hoisted outermost, so a GEMM-shaped block runs as a blocked
// dgemm. Hoisting the first contracted loop's block loop leaves the
// contracted order intact; hoisting a later one would not, so later
// contracted loops run whole.
//
// A Contraction holds the planned nest as scratch: it is not safe for
// concurrent Runs.
type Contraction struct {
	free []bool
	refs int // operands: the output, then the factors

	lv  []level // the planned nest, outermost first
	st  []int   // backing of the levels' strides
	at  []int   // per index: position of its block loop in lv, or -1
	off []int   // running offsets of the N-factor nest, one row per level
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
	return &Contraction{
		free: append([]bool(nil), free...),
		refs: refs,
		lv:   make([]level, 0, levels),
		st:   make([]int, 0, levels*refs),
		at:   make([]int, nd),
		off:  make([]int, levels*refs),
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
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wc := NewContraction(c.free, c.refs-1)
		ext := append([]int(nil), b.Ext...)
		ext[split] = hi - lo
		start := append([]int(nil), b.Start...)
		for r := range start {
			start[r] += lo * b.Stride[r*nd+split]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc.run(ext, start, b)
		}()
	}
	wg.Wait()
}

// run plans the nest for the given extents and executes it from the given
// origin.
func (c *Contraction) run(ext, start []int, b *Block) {
	c.plan(ext, b.Stride)
	if c.refs == 3 {
		o, x, y, out, fx, fy := start[0], start[1], start[2], b.Data[0], b.Data[1], b.Data[2]
		if in := &c.lv[0]; len(c.lv) == 1 {
			mac2(in.n, o, x, y, in.s[0], in.s[1], in.s[2], out, fx, fy)
		} else {
			c.nest2(0, o, x, y, out, fx, fy)
		}
		return
	}
	copy(c.off, start)
	c.nestN(0, b.Data)
}

// plan lays the nest out in c.lv (see the type's doc comment).
func (c *Contraction) plan(ext, stride []int) {
	firstCon, lastCon := -1, -1
	for d, n := range ext {
		if n > 1 && !c.free[d] {
			if firstCon < 0 {
				firstCon = d
			}
			lastCon = d
		}
	}
	// The innermost loop: the longest admissible one, and among equals the
	// one along which fewest operands jump (stride other than 0 or 1), the
	// later index winning a tie.
	inner, innerJumps := -1, 0
	for d, n := range ext {
		if n <= 1 || !(c.free[d] || d == lastCon) {
			continue
		}
		jumps := 0
		for r := 0; r < c.refs; r++ {
			if s := stride[r*len(ext)+d]; s != 0 && s != 1 {
				jumps++
			}
		}
		if inner < 0 || n > ext[inner] || (n == ext[inner] && jumps <= innerJumps) {
			inner, innerJumps = d, jumps
		}
	}

	c.lv, c.st = c.lv[:0], c.st[:0]
	for d, n := range ext {
		c.at[d] = -1
		if n > gemmBlock && (c.free[d] || d == firstCon) {
			c.at[d] = len(c.lv)
			c.push(level{n: (n + gemmBlock - 1) / gemmBlock, span: n}, stride, d, gemmBlock)
		}
	}
	for d, n := range ext {
		if n > 1 && d != inner {
			c.pushLoop(n, stride, d)
		}
	}
	if inner >= 0 {
		c.pushLoop(ext[inner], stride, inner)
	} else {
		// Every extent is 1: the nest is a single point.
		c.push(level{n: 1}, stride, 0, 0)
	}
}

// pushLoop appends index d's loop, tying it to d's block loop if it has one.
func (c *Contraction) pushLoop(n int, stride []int, d int) {
	if at := c.at[d]; at >= 0 {
		c.lv[at].sub = len(c.lv)
	}
	c.push(level{n: n}, stride, d, 1)
}

// push appends a level advancing each operand by step times its stride
// along index d.
func (c *Contraction) push(lv level, stride []int, d, step int) {
	nd, base := len(c.free), len(c.st)
	for r := 0; r < c.refs; r++ {
		s := 0
		if step != 0 {
			s = step * stride[r*nd+d]
		}
		c.st = append(c.st, s)
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
// nest (l is not the innermost level) with the operands at offsets o, x
// and y.
func (c *Contraction) nest2(l, o, x, y int, out, fx, fy []float64) {
	lv := &c.lv[l]
	so, sx, sy := lv.s[0], lv.s[1], lv.s[2]
	in := &c.lv[l+1]
	leaf := l+2 == len(c.lv)
	for i := 0; i < lv.n; i++ {
		c.enter(lv, i)
		if leaf {
			mac2(in.n, o, x, y, in.s[0], in.s[1], in.s[2], out, fx, fy)
		} else {
			c.nest2(l+1, o, x, y, out, fx, fy)
		}
		o, x, y = o+so, x+sx, y+sy
	}
}

// mac2 is the innermost loop of a two-factor nest: n multiply-adds with
// three running offsets bumped by constant strides — a dot product when the
// output stands still, an axpy otherwise.
func mac2(n, o, x, y, so, sx, sy int, out, fx, fy []float64) {
	switch {
	case so == 0: // dot: one accumulator, products added in loop order
		acc := out[o]
		for k := 0; k < n; k++ {
			acc += float64(fx[x] * fy[y])
			x, y = x+sx, y+sy
		}
		out[o] = acc
	case sx == 0 && so == 1 && sy == 1: // unit-stride axpy (the dgemm inner loop)
		xv, dst, src := fx[x], out[o:o+n], fy[y:y+n]
		src = src[:len(dst)]
		for k := range dst {
			dst[k] += float64(xv * src[k])
		}
	default:
		for k := 0; k < n; k++ {
			out[o] += float64(fx[x] * fy[y])
			o, x, y = o+so, x+sx, y+sy
		}
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
