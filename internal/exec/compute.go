package exec

import (
	"sync"

	"repro/internal/codegen"
)

// computeWith runs a statement's intra-tile block — for every point of the
// intra-tile index space, out += Π factors — against the buffer bindings
// and tile bases the scheduler captured when it scheduled the block.
func (e *engine) computeWith(c *codegen.Compute, base map[string]int64, outInst binding, facInsts []binding) {
	// Intra-tile extents at the tile bases.
	extents := make([]int64, len(c.Intra))
	bases := make([]int64, len(c.Intra))
	intraPos := map[string]int{}
	for i, x := range c.Intra {
		n := e.plan.Prog.Ranges[x]
		b := base[x]
		bases[i] = b
		extents[i] = min(e.plan.Tiles[x], n-b)
		intraPos[x] = i
	}

	// Parallel split: an intra dimension that indexes the output buffer,
	// so workers touch disjoint output elements.
	workers := e.opt.Workers
	splitDim := -1
	if workers > 1 {
		for _, d := range c.Out.Dims {
			if j, ok := intraPos[d.Index]; ok && extents[j] >= 2 {
				if splitDim < 0 || extents[j] > extents[splitDim] {
					splitDim = j
				}
			}
		}
	}
	if splitDim < 0 || workers <= 1 {
		e.computeRange(c, base, outInst, facInsts, intraPos, bases, extents, 0, 0, extents0(extents))
		return
	}
	if int64(workers) > extents[splitDim] {
		workers = int(extents[splitDim])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := extents[splitDim] * int64(w) / int64(workers)
		hi := extents[splitDim] * int64(w+1) / int64(workers)
		if hi == lo {
			continue
		}
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			e.computeRange(c, base, outInst, facInsts, intraPos, bases, extents, splitDim, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// computePoints returns the number of intra-tile index points of a compute
// block at the given tile bases (used by the timeline model).
func (e *engine) computePoints(c *codegen.Compute, base map[string]int64) int64 {
	pts := int64(1)
	for _, x := range c.Intra {
		n := e.plan.Prog.Ranges[x]
		pts *= min(e.plan.Tiles[x], n-base[x])
	}
	return pts
}

// extents0 returns the full range of dimension 0 (or 1 for scalar
// spaces), the default split bounds of a serial run.
func extents0(extents []int64) int64 {
	if len(extents) == 0 {
		return 1
	}
	return extents[0]
}

// computeRange executes the intra-tile block with dimension splitDim
// restricted to [lo, hi).
func (e *engine) computeRange(c *codegen.Compute, base map[string]int64, outInst binding, facInsts []binding,
	intraPos map[string]int, bases, extents []int64, splitDim int, lo, hi int64) {

	idx := make([]int64, len(c.Intra))
	if len(idx) > 0 {
		idx[splitDim] = lo
	}

	// Precompile each reference's addressing against the intra index
	// vector so the hot loop is free of map lookups.
	refs := make([]compiledRef, 0, len(c.Factors)+1)
	compileRef := func(buf *codegen.Buffer, inst binding) compiledRef {
		cr := compiledRef{data: inst.t.Data()}
		for i, d := range buf.Dims {
			dim := inst.t.Dim(i)
			j, isIntra := intraPos[d.Index]
			var src *int64
			var con int64
			if isIntra {
				src = &idx[j]
				con = bases[j] - inst.base[i]
			} else {
				con = base[d.Index] - inst.base[i]
			}
			cr.dims = append(cr.dims, refDim{size: dim, src: src, con: con})
		}
		return cr
	}
	out := compileRef(c.Out, outInst)
	for i, f := range c.Factors {
		refs = append(refs, compileRef(f, facInsts[i]))
	}

	for {
		prod := 1.0
		for i := range refs {
			prod *= refs[i].data[refs[i].offset()]
		}
		out.data[out.offset()] += prod

		d := len(idx) - 1
		for ; d >= 0; d-- {
			idx[d]++
			limit := extents[d]
			reset := int64(0)
			if d == splitDim {
				limit, reset = hi, lo
			}
			if idx[d] < limit {
				break
			}
			idx[d] = reset
		}
		if d < 0 {
			break
		}
	}
}

// compiledRef is a buffer reference with addressing resolved to pointers
// into the intra index vector plus constant offsets.
type compiledRef struct {
	data []float64
	dims []refDim
}

type refDim struct {
	size int
	src  *int64 // intra index source, nil for loop-invariant dims
	con  int64  // constant offset (global base minus buffer base)
}

func (r *compiledRef) offset() int {
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
