package exec

import (
	"slices"

	"repro/internal/codegen"
	"repro/internal/obs"
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
	// pos is each intra index's enclosing loop on the walker's loop stack
	// (-1: none; its base is then 0), from the plan's lowering: the plan's
	// nesting is static.
	pos []int
	// loop gives, per operand (the output, then the factors) and buffer
	// dim, the position of the dim's index in c.Intra, -1 if it is not an
	// intra index; secs are the operands' lowered sections, whose From
	// gives a non-intra dim's enclosing loop as pos does.
	loop [][]int
	secs []codegen.Section
	// bufs is each operand's double-buffer state; slots holds the live
	// instances of the block being computed.
	bufs  []*pipeBuf
	slots []*pslot
	// blk is the block every compute step is described in and run from.
	blk *tensor.Block
	// span is the interned span name (0 without a tracer).
	span obs.Key
}

// kernel builds a compute block's kernel from its lowering l.
func (lw *lowering) kernel(c *codegen.Compute, l *codegen.Lowered) *kernel {
	e := lw.e
	nd, refs := len(c.Intra), len(c.Factors)+1
	k := &kernel{c: c, pos: l.IntraFrom, loop: make([][]int, refs), secs: l.Operands,
		bufs: make([]*pipeBuf, refs), slots: make([]*pslot, refs), span: e.sched.span("compute ", c.Out.Name)}
	n := 0
	for r := 0; r < refs; r++ {
		n += len(k.operand(r).Dims)
	}
	i64, ints := make([]int64, 3*nd), make([]int, n)
	k.rng, k.tile, k.at = i64[:nd:nd], i64[nd:2*nd:2*nd], i64[2*nd:]
	free := make([]bool, nd)
	for j, x := range c.Intra {
		k.rng[j], k.tile[j] = e.plan.Prog.Ranges[x], e.plan.Tiles[x]
	}
	for r := 0; r < refs; r++ {
		k.bufs[r] = lw.pipeBuf(k.operand(r))
		dims := k.operand(r).Dims
		loop := ints[:len(dims):len(dims)]
		ints = ints[len(dims):]
		for i, d := range dims {
			loop[i] = slices.Index(c.Intra, d.Index)
			if loop[i] >= 0 && r == 0 {
				free[loop[i]] = true
			}
		}
		k.loop[r] = loop
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

// slot returns operand r's live instance, nil before its first fill.
func (k *kernel) slot(r int) *pslot {
	pb := k.bufs[r]
	return pb.slots[pb.cur]
}

// clip sets blk's extents to the intra-tile extents at the walker's tile
// bases: the tile, cut at the end of the range.
func (k *kernel) clip(blk *tensor.Block, e *engine) {
	for j := range k.c.Intra {
		k.at[j] = e.tileBase(k.pos[j])
		blk.Ext[j] = int(min(k.tile[j], k.rng[j]-k.at[j]))
	}
}

// bind points operand r of blk at a buffer instance: strides from the
// instance's actual dims (a partial tile is a smaller tensor), origin at
// the walker's tile bases (clip ran) relative to the instance's.
func (k *kernel) bind(blk *tensor.Block, r int, e *engine, b binding) {
	nd, buf := len(k.at), k.operand(r)
	strides := blk.Stride[r*nd : (r+1)*nd]
	clear(strides)
	start, s := 0, 1
	for i := len(buf.Dims) - 1; i >= 0; i-- {
		if j := k.loop[r][i]; j >= 0 {
			strides[j] += s
			start += int(k.at[j]-b.base[i]) * s
		} else {
			start += int(e.tileBase(k.secs[r][i].From)-b.base[i]) * s
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
