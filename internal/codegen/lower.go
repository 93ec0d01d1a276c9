package codegen

import "repro/internal/placement"

// Lowered is a plan node lowered for walking, the one answer to "which
// disk section does this buffer move at this loop position" that the
// execution engine runs and the plan verifier checks: a loop knows its
// depth on the stack of enclosing loops and whether its subtree moves
// data; an I/O or zero-fill knows, per buffer dim, which enclosing loop
// its tile base comes from and how far it extends; a compute block knows
// the same of its intra indices and of every buffer it touches.
type Lowered struct {
	Node Node
	// Depth is a loop's number of enclosing loops.
	Depth int
	// HasIO reports whether a loop's subtree performs disk I/O (an init
	// pass counts).
	HasIO bool
	// Body is a loop's body, lowered.
	Body []Lowered
	// Sect is the section an I/O or zero-fill moves.
	Sect Section
	// IntraFrom gives, per intra index of a compute block, the depth of
	// the enclosing loop its tile base comes from (-1: none, base 0).
	IntraFrom []int
	// Operands are the sections of a compute block's buffers at its
	// position: the output's, then the factors'.
	Operands []Section
}

// Section is the disk section a buffer maps to, one SectionDim per
// buffer dim.
type Section []SectionDim

// SectionDim is one dim of a Section: it starts at the tile base of the
// enclosing loop at depth From (at 0 when From < 0) and extends Ext, cut
// at the index range Range when Clip (a tile dim).
type SectionDim struct {
	From       int
	Ext, Range int64
	Clip       bool
}

// At fills lo and shape with the section at the given tile bases, bases[d]
// being that of the enclosing loop at depth d: tile dims clip at the array
// boundary, full dims span the range, unit dims take one element.
func (s Section) At(bases, lo, shape []int64) {
	for i, d := range s {
		var b int64
		if d.From >= 0 {
			b = bases[d.From]
		}
		lo[i], shape[i] = b, d.Ext
		if d.Clip {
			shape[i] = min(d.Ext, d.Range-b)
		}
	}
}

// Lower lowers the plan body, one Lowered per node. A tile or unit dim,
// and a compute block's intra index, starts at the base of the innermost
// loop over its index that encloses the node, at 0 when none does.
// Closing a loop forgets its index even where an enclosing loop over the
// same index is still open, so the nodes after it in that loop's body
// start at 0; only plans that nest a loop in one over the same index,
// which verify's R4 rejects, see the difference.
func Lower(p *Plan) []Lowered {
	lw := lowering{p: p, from: map[string]int{}}
	body, _ := lw.body(p.Body, 0)
	return body
}

// lowering holds, per index, the depth of the loop a section of that
// index starts at, and the slabs the lowered bodies and sections are cut
// from (a run lowers its plan once; the slabs keep that to a few
// allocations).
type lowering struct {
	p     *Plan
	from  map[string]int
	nodes []Lowered
	dims  []SectionDim
	secs  []Section
	ints  []int
}

// carve cuts the next n elements from *slab, starting a new slab when it
// runs out.
func carve[T any](slab *[]T, n int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(64, n))
	}
	k := len(*slab)
	*slab = (*slab)[:k+n]
	return (*slab)[k : k+n : k+n]
}

// body lowers ns at the given loop depth; hasIO reports whether any of
// them performs disk I/O.
func (lw *lowering) body(ns []Node, depth int) (out []Lowered, hasIO bool) {
	out = carve(&lw.nodes, len(ns))
	for i, n := range ns {
		l := &out[i]
		l.Node = n
		switch n := n.(type) {
		case *Loop:
			lw.from[n.Index] = depth
			l.Depth = depth
			l.Body, l.HasIO = lw.body(n.Body, depth+1)
			delete(lw.from, n.Index)
			hasIO = hasIO || l.HasIO
		case *IO:
			l.Sect, hasIO = lw.section(n.Buffer), true
		case *ZeroBuf:
			l.Sect = lw.section(n.Buffer)
		case *InitPass:
			hasIO = true
		case *Compute:
			l.IntraFrom = carve(&lw.ints, len(n.Intra))
			for j, x := range n.Intra {
				l.IntraFrom[j] = lw.depthOf(x)
			}
			l.Operands = carve(&lw.secs, len(n.Factors)+1)
			l.Operands[0] = lw.section(n.Out)
			for r, f := range n.Factors {
				l.Operands[r+1] = lw.section(f)
			}
		}
	}
	return out, hasIO
}

// section lowers the section buf maps to at the current position.
func (lw *lowering) section(buf *Buffer) Section {
	s := Section(carve(&lw.dims, len(buf.Dims)))
	for i, d := range buf.Dims {
		from, n := lw.depthOf(d.Index), lw.p.Prog.Ranges[d.Index]
		switch d.Class {
		case placement.ExtTile:
			s[i] = SectionDim{From: from, Ext: lw.p.Tiles[d.Index], Range: n, Clip: true}
		case placement.ExtFull:
			s[i] = SectionDim{From: -1, Ext: n}
		default: // ExtOne: the single current element
			s[i] = SectionDim{From: from, Ext: 1}
		}
	}
	return s
}

// depthOf is the depth of the innermost open loop over index x, -1 when
// none is open.
func (lw *lowering) depthOf(x string) int {
	if d, ok := lw.from[x]; ok {
		return d
	}
	return -1
}

// UnitIO returns the disk arrays the subtree of n reads and writes (an
// init pass writes its array): what exec's recovery and verify's rule S5
// know of a top-level work unit.
func UnitIO(n Node) (reads, writes map[string]bool) {
	reads, writes = map[string]bool{}, map[string]bool{}
	unitIO(n, reads, writes)
	return reads, writes
}

func unitIO(n Node, reads, writes map[string]bool) {
	switch n := n.(type) {
	case *Loop:
		for _, c := range n.Body {
			unitIO(c, reads, writes)
		}
	case *IO:
		if n.Read {
			reads[n.Array] = true
		} else {
			writes[n.Array] = true
		}
	case *InitPass:
		writes[n.Array] = true
	}
}
