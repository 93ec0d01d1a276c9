// Package codegen implements the final step of out-of-core synthesis:
// given the tiled program, the enumerated placement model, and the
// solver's assignment (tile sizes + selected candidate per array), it
// generates the concrete out-of-core program — a tree of tiling loops with
// explicit disk read/write statements, buffer initializations, and
// intra-tile compute blocks (the paper's Fig. 4(b)). The plan is both
// executable (package exec) and printable as pseudo-code.
package codegen

import (
	"fmt"

	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tiling"
)

// Buffer is one in-memory buffer of the concrete program. Its maximum
// extent along each dimension is the tile size (ExtTile) or the full range
// (ExtFull); at array boundaries the instantiated extent may be smaller.
type Buffer struct {
	// Name is unique within the plan, e.g. "A", "T.w", "T.r".
	Name string
	// Array is the program array this buffers.
	Array string
	Dims  []placement.BufDim
	// MaxElems is the element count at full tile extents.
	MaxElems int64
}

// DiskArray describes an array resident on disk in the concrete program.
type DiskArray struct {
	Name    string
	Indices []string
	Dims    []int64
	Kind    loops.Kind
	// NeedsInit: the array must be zero-filled before the computation
	// (read-modify-write accumulation reads it back).
	NeedsInit bool
}

// Node is a node of the concrete program: *Loop, *IO, *ZeroBuf,
// *InitPass, or *Compute.
type Node interface{ cnode() }

// Loop is a tiling loop: Index runs over tile bases 0, Tile, 2·Tile, ...
// up to Range.
type Loop struct {
	Index string
	Range int64
	Tile  int64
	Body  []Node
}

// IO is a disk read or write of a buffer-shaped section.
type IO struct {
	Read   bool
	Array  string
	Buffer *Buffer
}

// ZeroBuf instantiates a buffer at the current tile bases and zero-fills
// it.
type ZeroBuf struct {
	Buffer *Buffer
}

// InitPass zero-fills an entire disk array, tile by tile.
type InitPass struct {
	Array string
}

// Compute executes one statement's intra-tile loop block against buffers.
type Compute struct {
	Stmt *loops.Stmt
	// Intra lists the intra-tile loop indices (outermost first).
	Intra []string
	// Out and Factors give the buffer backing each array reference of the
	// statement, in statement order.
	Out     *Buffer
	Factors []*Buffer
}

func (*Loop) cnode()     {}
func (*IO) cnode()       {}
func (*ZeroBuf) cnode()  {}
func (*InitPass) cnode() {}
func (*Compute) cnode()  {}

// Plan is a complete concrete out-of-core program.
type Plan struct {
	Prog  *loops.Program
	Cfg   machine.Config
	Tiles map[string]int64
	Body  []Node
	// Buffers lists every buffer, in creation order.
	Buffers []*Buffer
	// DiskArrays lists every disk-resident array, in program order.
	DiskArrays []DiskArray
	// Predicted is the cost model's I/O time in seconds (the solver
	// objective at the chosen assignment).
	Predicted float64
	// PredictedReadBytes/PredictedWriteBytes from the model.
	PredictedReadBytes  float64
	PredictedWriteBytes float64
}

// MemoryBytes returns the static memory footprint: the sum of all buffer
// maxima times the element size.
func (p *Plan) MemoryBytes() int64 {
	total := int64(0)
	for _, b := range p.Buffers {
		total += b.MaxElems * p.Cfg.ElemSize
	}
	return total
}

// Generate builds the concrete plan from a solved assignment.
func Generate(prob *nlp.Problem, x []int64) (*Plan, error) {
	m := prob.Model
	a := prob.Decode(x)
	g := &generator{
		m:     m,
		tiles: a.Tiles,
		plan: &Plan{
			Prog:      m.Prog,
			Cfg:       m.Cfg,
			Tiles:     a.Tiles,
			Predicted: a.Objective,
		},
		pre:  map[tiling.Node][]Node{},
		post: map[tiling.Node][]Node{},
		bufs: map[string]*Buffer{},
	}
	for ci, sel := range prob.Selected(x) {
		ch := &m.Choices[ci]
		g.selected = append(g.selected, selectedChoice{choice: ch, cand: &ch.Candidates[sel]})
	}
	if err := g.run(); err != nil {
		return nil, err
	}
	// Predicted byte totals for reports.
	for _, sc := range g.selected {
		read, write := sc.cand.Moved(x, m.Ranges)
		g.plan.PredictedReadBytes += read
		g.plan.PredictedWriteBytes += write
	}
	// The memory invariant only holds for feasible assignments; structural
	// invariants must hold regardless. Check structure always, memory only
	// when the solver claimed feasibility.
	if prob.Feasible(x) {
		if err := g.plan.Validate(); err != nil {
			return nil, err
		}
	}
	return g.plan, nil
}

type selectedChoice struct {
	choice *placement.Choice
	cand   *placement.Candidate
}

type generator struct {
	m        *placement.Model
	tiles    map[string]int64
	plan     *Plan
	selected []selectedChoice
	// pre/post collect I/O and init nodes to splice before/after the
	// concrete node generated for a tiled-tree node.
	pre, post map[tiling.Node][]Node
	bufs      map[string]*Buffer
}

func (g *generator) run() error {
	// 1. Disk arrays: inputs and outputs always; intermediates that are
	// not kept in memory.
	inMemory := map[string]bool{}
	rmw := map[string]bool{}
	for _, sc := range g.selected {
		if sc.cand.InMemory {
			inMemory[sc.cand.Array] = true
		}
		if sc.cand.RMWRead {
			rmw[sc.cand.Array] = true
		}
	}
	for _, name := range g.m.Prog.Order {
		arr := g.m.Prog.Arrays[name]
		if arr.Kind == loops.Intermediate && inMemory[name] {
			continue
		}
		dims := make([]int64, len(arr.OrigIndices))
		for i, idx := range arr.OrigIndices {
			dims[i] = g.m.Prog.Ranges[idx]
		}
		g.plan.DiskArrays = append(g.plan.DiskArrays, DiskArray{
			Name:      name,
			Indices:   append([]string(nil), arr.OrigIndices...),
			Dims:      dims,
			Kind:      arr.Kind,
			NeedsInit: rmw[name],
		})
	}

	// 2. Buffers and placement of I/O around tiled-tree nodes.
	for _, sc := range g.selected {
		if err := g.placeCandidate(sc); err != nil {
			return err
		}
	}

	// 3. Convert the tiled tree, splicing in the collected pre/post nodes.
	body, err := g.convert(g.m.Tree.Body)
	if err != nil {
		return err
	}
	g.plan.Body = body
	return nil
}

// maxElems returns a buffer's element capacity: a tile along each
// ExtTile dimension, the full range along each ExtFull one.
func maxElems(dims []placement.BufDim, tiles, ranges map[string]int64) int64 {
	n := int64(1)
	for _, d := range dims {
		switch d.Class {
		case placement.ExtTile:
			n *= tiles[d.Index]
		case placement.ExtFull:
			n *= ranges[d.Index]
		}
	}
	return n
}

// newBuffer registers a buffer for a choice occurrence.
func (g *generator) newBuffer(name, array string, dims []placement.BufDim) *Buffer {
	b := &Buffer{Name: name, Array: array, Dims: dims, MaxElems: maxElems(dims, g.tiles, g.m.Prog.Ranges)}
	g.plan.Buffers = append(g.plan.Buffers, b)
	g.bufs[name] = b
	return b
}

// target resolves an I/O position to the tiled-tree node it wraps: the
// path node at the position's depth, or the leaf itself for leaf
// placements.
func target(pos placement.Position) tiling.Node {
	if pos.Depth < len(pos.Site.Path) {
		return pos.Site.Path[pos.Depth]
	}
	return pos.Site.Leaf
}

// placeCandidate creates the buffers of one selected candidate and records
// its reads, zero-fills, and writes around the tiled tree.
func (g *generator) placeCandidate(sc selectedChoice) error {
	c := sc.cand
	switch {
	case c.InMemory:
		// Buffer only; zero-filling comes from the abstract InitMark.
		g.newBuffer(sc.choice.Name, c.Array, c.MemBuf.Dims)
	default:
		if c.Read != nil && c.Write == nil { // input
			b := g.newBuffer(sc.choice.Name, c.Array, c.Read.Buf.Dims)
			tn := target(c.Read.Pos)
			g.pre[tn] = append(g.pre[tn], &IO{Read: true, Array: c.Array, Buffer: b})
		}
		if c.Write != nil && c.Read == nil { // output
			b := g.newBuffer(sc.choice.Name, c.Array, c.Write.Buf.Dims)
			tn := target(c.Write.Pos)
			if c.RMWRead {
				g.pre[tn] = append(g.pre[tn], &IO{Read: true, Array: c.Array, Buffer: b})
			} else {
				g.pre[tn] = append(g.pre[tn], &ZeroBuf{Buffer: b})
			}
			g.post[tn] = append(g.post[tn], &IO{Read: false, Array: c.Array, Buffer: b})
		}
		if c.Write != nil && c.Read != nil { // disk intermediate
			wb := g.newBuffer(sc.choice.Name+".w", c.Array, c.Write.Buf.Dims)
			wt := target(c.Write.Pos)
			if c.RMWRead {
				g.pre[wt] = append(g.pre[wt], &IO{Read: true, Array: c.Array, Buffer: wb})
			} else {
				g.pre[wt] = append(g.pre[wt], &ZeroBuf{Buffer: wb})
			}
			g.post[wt] = append(g.post[wt], &IO{Read: false, Array: c.Array, Buffer: wb})

			rb := g.newBuffer(sc.choice.Name+".r", c.Array, c.Read.Buf.Dims)
			rt := target(c.Read.Pos)
			g.pre[rt] = append(g.pre[rt], &IO{Read: true, Array: c.Array, Buffer: rb})
		}
	}
	return nil
}

// bufferForRef finds the buffer backing an array reference at a statement
// site: the choice selected for that (array, site) occurrence.
func (g *generator) bufferForRef(name string, leaf *tiling.Leaf, isOut bool) (*Buffer, error) {
	arr := g.m.Prog.Arrays[name]
	for _, sc := range g.selected {
		c := sc.cand
		if c.Array != name {
			continue
		}
		switch {
		case c.InMemory:
			return g.bufs[sc.choice.Name], nil
		case arr.Kind == loops.Input:
			// The input occurrence must match this leaf's statement.
			if c.Read != nil && c.Read.Pos.Site.Leaf == leaf {
				return g.bufs[sc.choice.Name], nil
			}
		case arr.Kind == loops.Output:
			// Multi-producer outputs have one choice per producer site.
			if isOut && c.Write != nil && c.Write.Pos.Site.Leaf == leaf {
				return g.bufs[sc.choice.Name], nil
			}
			if !isOut {
				return nil, fmt.Errorf("codegen: output %q consumed as a factor", name)
			}
		default: // disk intermediate: producer side writes, consumer reads
			if isOut {
				return g.bufs[sc.choice.Name+".w"], nil
			}
			return g.bufs[sc.choice.Name+".r"], nil
		}
	}
	return nil, fmt.Errorf("codegen: no buffer for reference to %q", name)
}

// convert lowers tiled-tree nodes to concrete nodes, splicing pre/post
// I/O.
func (g *generator) convert(ns []tiling.Node) ([]Node, error) {
	var out []Node
	for _, n := range ns {
		var conv Node
		switch n := n.(type) {
		case *tiling.Loop:
			body, err := g.convert(n.Body)
			if err != nil {
				return nil, err
			}
			conv = &Loop{
				Index: n.Index,
				Range: g.m.Prog.Ranges[n.Index],
				Tile:  g.tiles[n.Index],
				Body:  body,
			}
		case *tiling.Leaf:
			cmp := &Compute{Stmt: n.Stmt, Intra: n.Intra}
			ob, err := g.bufferForRef(n.Stmt.Out.Name, n, true)
			if err != nil {
				return nil, err
			}
			cmp.Out = ob
			for _, f := range n.Stmt.Factors {
				fb, err := g.bufferForRef(f.Name, n, false)
				if err != nil {
					return nil, err
				}
				cmp.Factors = append(cmp.Factors, fb)
			}
			conv = cmp
		case *tiling.InitMark:
			arr := g.m.Prog.Arrays[n.Array]
			if arr.Kind == loops.Intermediate {
				if b := g.bufs[n.Array]; b != nil {
					// In-memory intermediate: zero the live buffer here (the
					// abstract init sits exactly at the producer/consumer
					// LCA).
					out = append(out, &ZeroBuf{Buffer: b})
					continue
				}
			}
			// Output or disk intermediate: a zero-init pass is needed only
			// under read-modify-write accumulation.
			needs := false
			for _, da := range g.plan.DiskArrays {
				if da.Name == n.Array && da.NeedsInit {
					needs = true
				}
			}
			if needs {
				out = append(out, &InitPass{Array: n.Array})
			}
			continue
		}
		out = append(out, g.pre[n]...)
		out = append(out, conv)
		out = append(out, g.post[n]...)
	}
	return out, nil
}
