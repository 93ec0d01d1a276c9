package placement

import (
	"fmt"

	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/tiling"
)

// enumerator carries the shared state of one enumeration run.
type enumerator struct {
	p   *loops.Program
	cfg machine.Config
	opt Options
	// pos maps a loop index to its position in Model.TileVars; ranges
	// is Model.Ranges.
	pos    map[string]int
	ranges []int64
}

// bufferIndices returns the index labels over which an array's buffers are
// computed. For intermediates this is the pre-fusion index set: a fused
// intermediate's storage re-expands to tile extent along fused dims.
func bufferIndices(arr *loops.Array) []string {
	return arr.OrigIndices
}

// rawPositions walks the extended path of a statement site bottom-up and
// returns the legal placement positions for an array with the given buffer
// indices, applying the three pruning rules of Sec. 4.1:
//
//  1. positions making the buffer scalar or vector are skipped (in-memory
//     products should be matrix-matrix operations);
//  2. positions immediately surrounded by a redundant loop are skipped
//     (hoisting above the redundant loop is never worse);
//  3. once the buffer no longer fits in memory even at tile size one, the
//     walk stops (positions further up only grow the buffer).
//
// minDepth bounds the walk for intermediates (their I/O must stay inside
// the producer/consumer's lowest common ancestor loop).
func (e *enumerator) rawPositions(site tiling.LeafSite, bufIdx []string, minDepth int) []IOPlacement {
	ep := site.ExtendedPath()
	idxSet := map[string]bool{}
	for _, x := range bufIdx {
		idxSet[x] = true
	}
	// Locate each buffer index's tiling and intra entries on the path.
	tAt := map[string]int{}
	iAt := map[string]int{}
	for j, en := range ep {
		if en.Intra {
			iAt[en.Index] = j
		} else {
			tAt[en.Index] = j
		}
	}
	// I/O statements sit between tiling loops: the innermost position is
	// immediately above the leaf's intra-tile block (the "leaf" placement
	// of Fig. 4), never inside it — an I/O statement inside intra-tile
	// loops would move the same tile repeatedly in tiny pieces.
	var out []IOPlacement
	for k := len(site.Path); k >= minDepth; k-- {
		dims := make([]BufDim, len(bufIdx))
		nonUnit := 0
		for i, x := range bufIdx {
			ti, okT := tAt[x]
			ii, okI := iAt[x]
			if !okT || !okI {
				// The index's loops do not enclose this statement; the
				// buffer must span the full range (cannot happen for
				// legal programs, but keep it safe).
				dims[i] = BufDim{Index: x, Class: ExtFull}
				nonUnit++
				continue
			}
			switch {
			case ii < k:
				dims[i] = BufDim{Index: x, Class: ExtOne}
			case ti < k:
				dims[i] = BufDim{Index: x, Class: ExtTile}
				nonUnit++
			default:
				dims[i] = BufDim{Index: x, Class: ExtFull}
				nonUnit++
			}
		}
		// Rule 1: keep the in-memory version at least two-dimensional.
		if nonUnit < min(2, len(bufIdx)) {
			continue
		}
		buf := e.bufferTerm(dims)
		// Rule 3: feasibility probe at tile size one.
		if buf.EvalTileOne(e.ranges) > float64(e.cfg.MemoryLimit) {
			break
		}
		// Rule 2: skip positions immediately surrounded by a redundant loop
		// (unless this is the innermost legal depth for an intermediate).
		if k > minDepth && k > 0 && !idxSet[ep[k-1].Index] {
			continue
		}
		ops := One()
		var redundant []tiling.PathEntry
		for j := 0; j < k; j++ {
			en := ep[j]
			if en.Intra {
				ops.Tiles = append(ops.Tiles, e.pos[en.Index])
			} else {
				ops.Trips = append(ops.Trips, e.pos[en.Index])
			}
			if !idxSet[en.Index] {
				redundant = append(redundant, en)
			}
		}
		out = append(out, IOPlacement{
			Pos:       Position{Site: site, Depth: k, Label: positionLabel(site, ep, k)},
			Buf:       BufferSpec{Dims: dims, Bytes: buf},
			Bytes:     ops.Mul(buf),
			Ops:       ops,
			Redundant: redundant,
		})
	}
	return out
}

// bufferTerm builds the symbolic byte size of a buffer.
func (e *enumerator) bufferTerm(dims []BufDim) Term {
	t := Term{Coeff: float64(e.cfg.ElemSize)}
	for _, d := range dims {
		switch d.Class {
		case ExtTile:
			t.Tiles = append(t.Tiles, e.pos[d.Index])
		case ExtFull:
			t.Fulls = append(t.Fulls, e.pos[d.Index])
		}
	}
	return t
}

func positionLabel(site tiling.LeafSite, ep []tiling.PathEntry, k int) string {
	switch {
	case k == len(site.Path):
		return "leaf"
	case k >= len(ep):
		return "innermost"
	default:
		return "above " + ep[k].String()
	}
}

// pruneDominated removes placements that are pointwise no better than
// another placement in both total bytes moved and buffer size.
func (e *enumerator) pruneDominated(ps []IOPlacement) []IOPlacement {
	if e.opt.DisableDominancePruning {
		return ps
	}
	var out []IOPlacement
	for i, a := range ps {
		dominated := false
		for j, b := range ps {
			if i == j {
				continue
			}
			betterOrEqual := DividesLE(b.Bytes, a.Bytes) &&
				DividesLE(b.Buf.Bytes, a.Buf.Bytes) &&
				DividesLE(b.Ops, a.Ops)
			if betterOrEqual {
				// Break ties deterministically: when a and b are mutually
				// comparable (identical costs), keep only the first.
				if j > i && DividesLE(a.Bytes, b.Bytes) &&
					DividesLE(a.Buf.Bytes, b.Buf.Bytes) && DividesLE(a.Ops, b.Ops) {
					continue
				}
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

// price states the cost model of c once, in c.Terms: the read bytes,
// write bytes, read ops and write ops (the objective), then the buffer
// bytes (the memory constraint), then the minimum-block terms. A
// read-modify-write reads back what the write writes, through the
// write's buffer; the zero-init pass only writes. The minimum block
// size amortizes seek time over block accesses; an array smaller than
// the minimum block is simply read or written whole, so the requirement
// clamps to the array's total size.
func (e *enumerator) price(c *Candidate, arr *loops.Array) {
	d := e.cfg.Disk
	arrBytes := float64(e.cfg.ElemSize)
	for _, x := range arr.OrigIndices {
		arrBytes *= float64(e.p.Ranges[x])
	}
	var reads, writes []*IOPlacement
	if c.Read != nil {
		reads = append(reads, c.Read)
	}
	if c.RMWRead {
		reads = append(reads, c.Write)
	}
	if c.Write != nil {
		writes = append(writes, c.Write)
	}
	if c.InitZero != nil {
		writes = append(writes, c.InitZero)
	}
	add := func(k Kind, scale float64, t Term) {
		c.Terms = append(c.Terms, Priced{Term: t, Kind: k, Scale: scale})
	}
	for _, io := range reads {
		add(ReadBytes, d.ReadBandwidth, io.Bytes)
	}
	for _, io := range writes {
		add(WriteBytes, d.WriteBandwidth, io.Bytes)
	}
	for _, io := range reads {
		add(ReadOps, d.SeekTime, io.Ops)
	}
	for _, io := range writes {
		add(WriteOps, d.SeekTime, io.Ops)
	}
	if c.MemBuf != nil {
		add(Memory, 0, c.MemBuf.Bytes)
	}
	if c.Read != nil {
		add(Memory, 0, c.Read.Buf.Bytes)
	}
	if c.Write != nil {
		add(Memory, 0, c.Write.Buf.Bytes) // shared with the RMW read
	}
	block := func(buf Term, minBlock int64) {
		if b := min(float64(minBlock), arrBytes); b > 0 {
			add(Block, b, buf)
		}
	}
	if c.Read != nil {
		block(c.Read.Buf.Bytes, d.MinReadBlock)
	}
	if c.Write != nil {
		block(c.Write.Buf.Bytes, d.MinWriteBlock)
		if c.RMWRead {
			block(c.Write.Buf.Bytes, d.MinReadBlock)
		}
	}
}

// add prices the candidates of ch and appends ch, through the
// incumbent filter, to m.
func (e *enumerator) add(m *Model, ch Choice) {
	for i := range ch.Candidates {
		e.price(&ch.Candidates[i], ch.Array)
	}
	m.Choices = append(m.Choices, e.boundFilter(ch, &m.BoundPruned))
}

// boundFilter drops candidates whose analytic cost lower bound exceeds
// the incumbent objective (Options.BoundIncumbent): no selection
// containing such a candidate can beat the incumbent, since the objective
// sums non-negative per-choice costs. The incumbent's own candidates
// always survive (their bound is at most their actual contribution, which
// is at most the incumbent total), so a feasible solution at least as
// good as the incumbent always remains in the pruned space. Defensively,
// a choice always keeps its cheapest-bound candidate.
func (e *enumerator) boundFilter(ch Choice, pruned *int) Choice {
	if e.opt.BoundIncumbent <= 0 || len(ch.Candidates) <= 1 {
		return ch
	}
	bounds := make([]float64, len(ch.Candidates))
	minIdx := 0
	for i := range ch.Candidates {
		bounds[i] = ch.Candidates[i].LowerBoundSeconds(e.ranges)
		if bounds[i] < bounds[minIdx] {
			minIdx = i
		}
	}
	var kept []Candidate
	for i := range ch.Candidates {
		if bounds[i] <= e.opt.BoundIncumbent {
			kept = append(kept, ch.Candidates[i])
		} else {
			*pruned++
		}
	}
	if len(kept) == 0 {
		kept = append(kept, ch.Candidates[minIdx])
		*pruned--
	}
	ch.Candidates = kept
	return ch
}

// inputChoice enumerates read placements for an input array at one
// consumer site.
func (e *enumerator) inputChoice(name string, arr *loops.Array, site tiling.LeafSite) (Choice, error) {
	ps := e.pruneDominated(e.rawPositions(site, bufferIndices(arr), 0))
	if len(ps) == 0 {
		return Choice{}, fmt.Errorf("placement: no feasible read placement for input %q (memory limit too small?)", name)
	}
	ch := Choice{Name: name, Array: arr}
	for i := range ps {
		p := ps[i]
		ch.Candidates = append(ch.Candidates, Candidate{
			Array: arr.Name,
			Read:  &p,
			Label: "read " + p.Pos.Label,
		})
	}
	return ch, nil
}

// outputChoice enumerates write placements for an output array at one
// producer site. A write surrounded by a redundant loop accumulates across
// that loop's iterations, so the tile must be read back before each
// accumulation (read-modify-write) and the disk array must be zeroed
// first. When the output has several producer statements (a sum of
// products), every site accumulates into the shared disk array:
// read-modify-write is forced everywhere, and the single zero-init pass is
// charged to the first site only.
func (e *enumerator) outputChoice(name string, arr *loops.Array, site tiling.LeafSite, forceRMW, chargeInit bool) (Choice, error) {
	ps := e.pruneDominated(e.rawPositions(site, bufferIndices(arr), 0))
	if len(ps) == 0 {
		return Choice{}, fmt.Errorf("placement: no feasible write placement for output %q (memory limit too small?)", name)
	}
	ch := Choice{Name: name, Array: arr}
	for i := range ps {
		p := ps[i]
		c := Candidate{
			Array: arr.Name,
			Write: &p,
			Label: "write " + p.Pos.Label,
		}
		if len(p.Redundant) > 0 || forceRMW {
			c.RMWRead = true
			if chargeInit {
				c.InitZero = e.initZeroPass(arr)
			}
			c.Label += " (read required)"
		}
		ch.Candidates = append(ch.Candidates, c)
	}
	return ch, nil
}

// initZeroPass builds the cost of writing the whole (padded) disk array
// once with zeros, tile by tile.
func (e *enumerator) initZeroPass(arr *loops.Array) *IOPlacement {
	bytes := Term{Coeff: float64(e.cfg.ElemSize)}
	ops := One()
	for _, x := range bufferIndices(arr) {
		bytes.Tiles = append(bytes.Tiles, e.pos[x])
		bytes.Trips = append(bytes.Trips, e.pos[x])
		ops.Trips = append(ops.Trips, e.pos[x])
	}
	return &IOPlacement{
		Pos:   Position{Label: "init pass"},
		Bytes: bytes,
		Ops:   ops,
	}
}

// intermediateChoice enumerates the strategies for an intermediate array:
// keep it in memory, or write it to disk after production and read it back
// before consumption, with both I/O statements constrained to lie inside
// the lowest common ancestor loop of producer and consumer.
func (e *enumerator) intermediateChoice(name string, arr *loops.Array, prod, cons tiling.LeafSite) (Choice, error) {
	ch := Choice{Name: name, Array: arr}
	lca := tiling.CommonPrefixLen(prod.Path, cons.Path)

	// In-memory candidate: the buffer lives at the LCA; dims with tiling
	// loops above (or at) the LCA hold one tile, the rest the full range.
	memDims := make([]BufDim, 0, len(bufferIndices(arr)))
	prefix := map[string]bool{}
	for _, l := range prod.Path[:lca] {
		prefix[l.Index] = true
	}
	for _, x := range bufferIndices(arr) {
		cls := ExtFull
		if prefix[x] {
			cls = ExtTile
		}
		memDims = append(memDims, BufDim{Index: x, Class: cls})
	}
	memBuf := BufferSpec{Dims: memDims, Bytes: e.bufferTerm(memDims)}
	if memBuf.Bytes.EvalTileOne(e.ranges) <= float64(e.cfg.MemoryLimit) {
		ch.Candidates = append(ch.Candidates, Candidate{
			Array:    arr.Name,
			InMemory: true,
			MemBuf:   &memBuf,
			Label:    "in memory",
		})
	}

	writes := e.pruneDominated(e.rawPositions(prod, bufferIndices(arr), lca))
	reads := e.pruneDominated(e.rawPositions(cons, bufferIndices(arr), lca))
	for i := range writes {
		for j := range reads {
			w, r := writes[i], reads[j]
			c := Candidate{
				Array: arr.Name,
				Write: &w,
				Read:  &r,
				Label: fmt.Sprintf("disk: write %s, read %s", w.Pos.Label, r.Pos.Label),
			}
			if len(w.Redundant) > 0 {
				c.RMWRead = true
				c.InitZero = e.initZeroPass(arr)
				c.Label += " (read required)"
			}
			ch.Candidates = append(ch.Candidates, c)
		}
	}
	if len(ch.Candidates) == 0 {
		return Choice{}, fmt.Errorf("placement: no feasible strategy for intermediate %q (memory limit too small?)", name)
	}
	return ch, nil
}
