package exec

import (
	"slices"

	"repro/internal/codegen"
	"repro/internal/tensor"
)

// kernel is a statement's intra-tile block — for every point of the
// intra-tile index space, out += Π factors — lowered once per run onto
// tensor.Contraction: which loop of the nest each dimension of the output
// and factor buffers follows. Per block only extents, strides and origins
// change; clip and bind fill them into a tensor.Block. The timeline model
// reads the same Block, so it cannot disagree with the kernel about a
// block's size.
type kernel struct {
	c   *codegen.Compute
	con *tensor.Contraction
	// rng and tile are each intra index's full range and tile size, at the
	// tile base the walker stood at when clip last ran.
	rng, tile, at []int64
	// loop gives, per operand (the output, then the factors) and buffer
	// dim, the position of the dim's index in c.Intra, -1 if it is not an
	// intra index.
	loop [][]int
	// blk is the block the serial schedule runs in place; a schedule that
	// queues blocks gives each its own.
	blk *tensor.Block
}

// lower builds the kernels of every compute block under ns.
func (e *engine) lower(ns []codegen.Node) {
	for _, n := range ns {
		switch n := n.(type) {
		case *codegen.Loop:
			e.lower(n.Body)
		case *codegen.Compute:
			e.kernels[n] = e.newKernel(n)
		}
	}
}

func (e *engine) newKernel(c *codegen.Compute) *kernel {
	nd := len(c.Intra)
	k := &kernel{c: c, rng: make([]int64, nd), tile: make([]int64, nd), at: make([]int64, nd)}
	free := make([]bool, nd)
	for j, x := range c.Intra {
		k.rng[j], k.tile[j] = e.plan.Prog.Ranges[x], e.plan.Tiles[x]
	}
	for r := 0; r <= len(c.Factors); r++ {
		dims := k.operand(r).Dims
		loop := make([]int, len(dims))
		for i, d := range dims {
			loop[i] = slices.Index(c.Intra, d.Index)
			if r == 0 && loop[i] >= 0 {
				free[loop[i]] = true
			}
		}
		k.loop = append(k.loop, loop)
	}
	k.con = tensor.NewContraction(free, len(c.Factors))
	k.blk = k.con.NewBlock()
	return k
}

// operand returns the buffer of operand r: the output, then the factors.
func (k *kernel) operand(r int) *codegen.Buffer {
	if r == 0 {
		return k.c.Out
	}
	return k.c.Factors[r-1]
}

// block returns the Block to describe the next block in: the kernel's own,
// or a fresh one for a block that is queued to run after the walker has
// moved on to the next.
func (k *kernel) block(queued bool) *tensor.Block {
	if queued {
		return k.con.NewBlock()
	}
	return k.blk
}

// clip sets blk's extents to the intra-tile extents at the walker's tile
// bases: the tile, cut at the end of the range.
func (k *kernel) clip(blk *tensor.Block, base map[string]int64) {
	for j, x := range k.c.Intra {
		k.at[j] = base[x]
		blk.Ext[j] = int(min(k.tile[j], k.rng[j]-k.at[j]))
	}
}

// bind points operand r of blk at a buffer instance: strides from the
// instance's actual dims (a partial tile is a smaller tensor), origin at
// the walker's tile bases (clip ran) relative to the instance's.
func (k *kernel) bind(blk *tensor.Block, r int, base map[string]int64, b binding) {
	nd, buf := len(k.at), k.operand(r)
	strides := blk.Stride[r*nd : (r+1)*nd]
	clear(strides)
	start, s := 0, 1
	for i := len(buf.Dims) - 1; i >= 0; i-- {
		if j := k.loop[r][i]; j >= 0 {
			strides[j] += s
			start += int(k.at[j]-b.base[i]) * s
		} else {
			start += int(base[buf.Dims[i].Index]-b.base[i]) * s
		}
		s *= b.t.Dim(i)
	}
	blk.Start[r] = start
	blk.Data[r] = b.t.Data()
}

// dryMul scales a compute block's modelled duration for the pruned loops
// around it (clip ran, at their base 0): an intra dim's extents sum to its
// full range across the trips; a non-intra dim repeats the same points
// every trip.
func (e *engine) dryMul(k *kernel, blk *tensor.Block) float64 {
	mul := 1.0
	for _, l := range e.dryLoops {
		if j := slices.Index(k.c.Intra, l.Index); j >= 0 {
			mul *= float64(l.Range) / float64(blk.Ext[j])
		} else {
			mul *= float64((l.Range + l.Tile - 1) / l.Tile)
		}
	}
	return mul
}

// computeSeconds models the clipped block's duration under the machine's
// flop rate (0 without one), pruned dry-run loops folded in.
func (e *engine) computeSeconds(k *kernel, blk *tensor.Block) float64 {
	rate := e.plan.Cfg.FlopRate
	if rate <= 0 {
		return 0
	}
	return float64(blk.Points()) * float64(2*len(k.c.Factors)) * e.dryMul(k, blk) / rate
}
