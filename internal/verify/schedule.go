package verify

// Schedule legality: the plan is flattened into its concrete operation
// order — every tiling loop iterated, every I/O section resolved to a
// rectangular box of its disk array — and the disk-level hazards are
// re-derived from scratch: S2 requires every read section to be covered by
// earlier writes (or the input staging / a zero-init pass), S3 requires
// overlapping writes to be separated by a read-back into the writing
// buffer (otherwise the later write clobbers accumulated data). The walk
// iterates the plan's lowering (codegen.Lower), the section rule the
// execution engine runs under either schedule too, so the sections
// checked are the sections issued; the hazard rules, the step count and
// the caps are the verifier's own. Independence lives in the tests:
// schedule_ref_test.go's map-keyed walk resolves every section again by
// itself, and the indexed walk's reports and exec's issued sections are
// both held to it.
//
// Each array's write events, read events and coverage fragments are
// bucketed on a grid whose cell is, per dimension, the largest extent any
// of the array's I/O buffers moves, so every I/O box touches at most two
// cells per dimension and a hazard query visits only the boxes near it.
// Queries return candidates in insertion order, which keeps every outcome
// — the first offending write S3 names, the coverage fragments and their
// count against MaxEvents — identical to a scan of the whole list.
//
// The walk is bounded by maxSteps and Options.MaxEvents: a plan whose tiling
// implies astronomical trip counts marks the report Truncated instead of
// iterating forever, and the caller can tell a partially-checked schedule
// from a verified one.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/codegen"
	"repro/internal/loops"
)

// sbox is a half-open rectangular section [lo, hi) of a disk array.
type sbox struct {
	lo, hi []int64
}

func boxOf(lo, shape []int64) sbox {
	hi := make([]int64, len(lo))
	for i := range lo {
		hi[i] = lo[i] + shape[i]
	}
	return sbox{lo: append([]int64(nil), lo...), hi: hi}
}

func wholeBox(dims []int64) sbox {
	return boxOf(make([]int64, len(dims)), dims)
}

func (b sbox) String() string {
	parts := make([]string, len(b.lo))
	for i := range b.lo {
		parts[i] = fmt.Sprintf("%d:%d", b.lo[i], b.hi[i])
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// overlaps reports whether a and b share a point.
func overlaps(a, b sbox) bool {
	for i := range a.lo {
		if max(a.lo[i], b.lo[i]) >= min(a.hi[i], b.hi[i]) {
			return false
		}
	}
	return true
}

// containsMeet reports whether outer contains the overlap of a and b,
// which must overlap.
func containsMeet(outer, a, b sbox) bool {
	for i := range outer.lo {
		if max(a.lo[i], b.lo[i]) < outer.lo[i] || min(a.hi[i], b.hi[i]) > outer.hi[i] {
			return false
		}
	}
	return true
}

// cutBox appends b \ c to dst as up to 2·rank disjoint boxes (slab
// decomposition, one dimension at a time: the slabs cut along dimension i
// span the overlap in every dimension before it). b itself is left as it
// is — it may be a stored event box.
func cutBox(dst []sbox, b, c sbox) []sbox {
	if !overlaps(b, c) {
		return append(dst, b)
	}
	r := len(b.lo)
	slab := func(i int) sbox {
		m := make([]int64, 2*r)
		copy(m, b.lo)
		copy(m[r:], b.hi)
		for j := range i {
			m[j], m[r+j] = max(b.lo[j], c.lo[j]), min(b.hi[j], c.hi[j])
		}
		return sbox{lo: m[:r:r], hi: m[r:]}
	}
	for i := range b.lo {
		lo, hi := max(b.lo[i], c.lo[i]), min(b.hi[i], c.hi[i])
		if b.lo[i] < lo {
			below := slab(i)
			below.hi[i] = lo
			dst = append(dst, below)
		}
		if hi < b.hi[i] {
			above := slab(i)
			above.lo[i] = hi
			dst = append(dst, above)
		}
	}
	return dst
}

// maxCells bounds the cells a box is bucketed under. An I/O box of rank
// ≤ 4 touches at most 2^4 cells.
const maxCells = 16

// grid buckets boxes by the cells of a regular lattice they touch, so a
// query visits only the boxes near it. Ids are handed out in insertion
// order. A box touching more than maxCells cells, and every box of the
// zero grid (which has no lattice), goes on the wide list every query
// scans.
type grid struct {
	cell  []int64            // lattice step per dimension
	ncell []uint64           // cells per dimension, for the cell key
	cells map[uint64][]int32 // cell key → ids, ascending; nil: no lattice
	wide  []int32            // ids, ascending
	n     int32              // ids handed out

	span, at []int64  // scratch: first/last cell per dimension, odometer
	keys     []uint64 // scratch: cells of the last box
	out      []int32  // scratch: query result
}

func newGrid(cell, dims []int64) grid {
	g := grid{cell: cell, ncell: make([]uint64, len(cell)), cells: map[uint64][]int32{}}
	for i, c := range cell {
		g.ncell[i] = uint64(max(1, (dims[i]+c-1)/c))
	}
	g.span = make([]int64, 2*len(cell))
	g.at = make([]int64, len(cell))
	return g
}

// key returns the key of the cell at coordinates at. Cells outside the
// array's dims may share a key; that only adds candidates to a query.
func (g *grid) key(at []int64) uint64 {
	var k uint64
	for i, c := range at {
		k = k*g.ncell[i] + uint64(c)
	}
	return k
}

// touch lists in g.keys the cells b touches (none if b is empty) and
// reports false when b is wide.
func (g *grid) touch(b sbox) bool {
	g.keys = g.keys[:0]
	if g.cells == nil || len(b.lo) != len(g.cell) {
		return false
	}
	r := len(g.cell)
	first, last := g.span[:r], g.span[r:]
	n := 1
	for i := range b.lo {
		if b.lo[i] >= b.hi[i] {
			return true
		}
		first[i], last[i] = b.lo[i]/g.cell[i], (b.hi[i]-1)/g.cell[i]
		span := last[i] - first[i] + 1
		if span > maxCells {
			return false
		}
		if n *= int(span); n > maxCells {
			return false
		}
	}
	at := g.at
	copy(at, first)
	for {
		g.keys = append(g.keys, g.key(at))
		i := r - 1
		for ; i >= 0 && at[i] == last[i]; i-- {
			at[i] = first[i]
		}
		if i < 0 {
			return true
		}
		at[i]++
	}
}

// insert registers b under the next id.
func (g *grid) insert(b sbox) {
	id := g.n
	g.n++
	if !g.touch(b) {
		g.wide = append(g.wide, id)
		return
	}
	for _, k := range g.keys {
		g.cells[k] = append(g.cells[k], id)
	}
}

// query returns the ids of every box that may overlap b, ascending and
// distinct. The result is scratch, valid until the next query.
func (g *grid) query(b sbox) []int32 {
	out := g.out[:0]
	if !g.touch(b) {
		for id := int32(0); id < g.n; id++ {
			out = append(out, id)
		}
		g.out = out
		return out
	}
	lists := 0
	for _, k := range g.keys {
		if l := g.cells[k]; len(l) > 0 {
			out = append(out, l...)
			lists++
		}
	}
	if len(g.wide) > 0 {
		out = append(out, g.wide...)
		lists++
	}
	if lists > 1 {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	g.out = out
	return out
}

// region is a union of disjoint boxes.
type region struct {
	boxes []sbox
	index grid // over boxes
	// full short-circuits coverage once the whole array is covered.
	full bool

	front, next []sbox // scratch for cut
}

// cut returns what is left of b after subtracting every box of the region
// that overlaps it, in insertion order; the result is scratch.
func (r *region) cut(b sbox) []sbox {
	front := append(r.front[:0], b)
	for _, id := range r.index.query(b) {
		next := r.next[:0]
		for _, f := range front {
			next = cutBox(next, f, r.boxes[id])
		}
		r.front, r.next = next, front
		front = next
		if len(front) == 0 {
			break
		}
	}
	return front
}

// add merges a box into the region, keeping the box list disjoint. It
// reports false when the fragment count would exceed cap.
func (r *region) add(b sbox, cap int) bool {
	if r.full {
		return true
	}
	for _, f := range r.cut(b) {
		r.index.insert(f)
		r.boxes = append(r.boxes, f)
	}
	return len(r.boxes) <= cap
}

// covers reports whether the region fully contains b.
func (r *region) covers(b sbox) bool {
	return r.full || len(r.cut(b)) == 0
}

// ioEvent is one concrete disk operation of the flattened schedule.
type ioEvent struct {
	box  sbox
	step int
	buf  *codegen.Buffer // nil for init passes
}

// events is an array's append-only list of I/O events and their grid.
type events struct {
	list  []ioEvent
	index grid
}

func (e *events) add(ev ioEvent) {
	e.index.insert(ev.box)
	e.list = append(e.list, ev)
}

// arraySched is the per-array hazard state of the schedule walk.
type arraySched struct {
	da      codegen.DiskArray
	covered region // sections with defined contents (staging, init, writes)
	writes  events
	reads   events
	skip    bool // event cap hit: rules S2/S3 suspended for this array
}

// readBack reports whether a read into buf after earlier write w contains
// the overlap of box and w. Such a read contains the overlap's low corner,
// so only the reads bucketed at that corner's cell (and the wide ones) can
// qualify; each list is scanned newest first, down to w.
func (as *arraySched) readBack(buf *codegen.Buffer, w *ioEvent, box sbox) bool {
	g := &as.reads.index
	qualifies := func(ids []int32) bool {
		for k := len(ids) - 1; k >= 0; k-- {
			r := &as.reads.list[ids[k]]
			if r.step <= w.step {
				return false
			}
			if r.buf == buf && containsMeet(r.box, box, w.box) {
				return true
			}
		}
		return false
	}
	for i := range g.at {
		g.at[i] = max(box.lo[i], w.box.lo[i]) / g.cell[i]
	}
	return qualifies(g.cells[g.key(g.at)]) || qualifies(g.wide)
}

type scheduler struct {
	c     *checker
	names []string // open loop indices, outermost first
	bases []int64  // tile base of each open loop
	state map[string]*arraySched
	steps int
	done  bool    // step cap hit
	mem   []int64 // backing store of event boxes
}

// pos renders the concrete loop position ("a=2,q=0").
func (s *scheduler) pos() string {
	if len(s.names) == 0 {
		return "top"
	}
	parts := make([]string, len(s.names))
	for i, idx := range s.names {
		parts[i] = fmt.Sprintf("%s=%d", idx, s.bases[i])
	}
	return strings.Join(parts, ",")
}

// boxAt resolves a lowered section at the current loop bases to the disk
// box it moves, held in the walk's backing store: every box resolved is
// kept as an event.
func (s *scheduler) boxAt(sect codegen.Section) sbox {
	r := len(sect)
	if cap(s.mem)-len(s.mem) < 2*r {
		s.mem = make([]int64, 0, max(4096, 2*r))
	}
	off := len(s.mem)
	s.mem = s.mem[:off+2*r]
	lo, hi := s.mem[off:off+r:off+r], s.mem[off+r:off+2*r:off+2*r]
	sect.At(s.bases, lo, hi)
	for i := range hi {
		hi[i] += lo[i]
	}
	return sbox{lo: lo, hi: hi}
}

// cells returns each array's grid cell: per dimension, the largest extent
// any well-formed I/O of the array moves (at least 1).
func (c *checker) cells(body []codegen.Lowered) map[string][]int64 {
	out := map[string][]int64{}
	for name, da := range c.arrays {
		cell := make([]int64, len(da.Dims))
		for i := range cell {
			cell[i] = 1
		}
		out[name] = cell
	}
	var walk func(ls []codegen.Lowered)
	walk = func(ls []codegen.Lowered) {
		for i := range ls {
			switch n := ls[i].Node.(type) {
			case *codegen.Loop:
				walk(ls[i].Body)
			case *codegen.IO:
				if cell, ok := out[n.Array]; ok && !c.badIO[n] {
					for d, sd := range ls[i].Sect {
						cell[d] = max(cell[d], sd.Ext)
					}
				}
			}
		}
	}
	walk(body)
	return out
}

// schedule runs the flattened walk (S2/S3).
func (c *checker) schedule() {
	s := &scheduler{c: c, state: map[string]*arraySched{}}
	body := codegen.Lower(c.p)
	cells := c.cells(body)
	// Deterministic array order for initialization (map ranges are not).
	names := make([]string, 0, len(c.arrays))
	for name := range c.arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		da := c.arrays[name]
		cell := cells[name]
		as := &arraySched{
			da:      da,
			covered: region{index: newGrid(cell, da.Dims)},
			writes:  events{index: newGrid(cell, da.Dims)},
			reads:   events{index: newGrid(cell, da.Dims)},
		}
		if da.Kind == loops.Input {
			// Inputs are staged onto disk before the run: fully covered.
			as.covered.full = true
		}
		s.state[name] = as
	}
	s.walk(body)
	c.rep.Steps = s.steps
	if s.done {
		c.rep.Truncated = true
	}
}

func (s *scheduler) tick() bool {
	s.steps++
	if s.steps > maxSteps {
		s.done = true
	}
	return !s.done
}

func (s *scheduler) walk(ls []codegen.Lowered) {
	for i := range ls {
		if s.done {
			return
		}
		l := &ls[i]
		switch n := l.Node.(type) {
		case *codegen.Loop:
			if n.Tile < 1 {
				continue // R4 already reported; avoid an infinite loop here
			}
			d := l.Depth
			s.names, s.bases = append(s.names[:d], n.Index), append(s.bases[:d], 0)
			for b := int64(0); b < n.Range; b += n.Tile {
				if !s.tick() {
					break
				}
				s.bases[d] = b
				s.walk(l.Body)
			}
			s.names, s.bases = s.names[:d], s.bases[:d]
		case *codegen.IO:
			if !s.tick() {
				return
			}
			as, ok := s.state[n.Array]
			if !ok || as.skip || s.c.badIO[n] {
				continue
			}
			box := s.boxAt(l.Sect)
			if n.Read {
				s.read(as, n, box)
			} else {
				s.write(as, n, box)
			}
		case *codegen.InitPass:
			if !s.tick() {
				return
			}
			as, ok := s.state[n.Array]
			if !ok || as.skip {
				continue
			}
			// A zero-init pass defines the whole array's contents.
			as.covered.full = true
			as.writes.add(ioEvent{box: wholeBox(as.da.Dims), step: s.steps})
		}
	}
}

// read checks S2 (the section's contents must be defined by staging, an
// init pass, or earlier writes) and records the event for S3's read-back
// rule.
func (s *scheduler) read(as *arraySched, n *codegen.IO, box sbox) {
	if !as.covered.covers(box) {
		s.c.diag("S2", n.Array, s.pos(),
			"read of %s from %q is not covered by any earlier write or init", box, n.Array)
	}
	as.reads.add(ioEvent{box: box, step: s.steps, buf: n.Buffer})
	if len(as.reads.list) > s.c.opt.MaxEvents {
		as.skip = true
		s.c.rep.Truncated = true
	}
}

// write checks S3 — a write overlapping an earlier write (or the init
// pass) must be preceded by a read-back of the overlap into the writing
// buffer after that earlier write, otherwise it clobbers accumulated data
// — and extends the array's coverage.
func (s *scheduler) write(as *arraySched, n *codegen.IO, box sbox) {
	for _, id := range as.writes.index.query(box) {
		w := &as.writes.list[id]
		if !overlaps(box, w.box) {
			continue
		}
		if !as.readBack(n.Buffer, w, box) {
			s.c.diag("S3", n.Array, s.pos(),
				"write of %s to %q overlaps an earlier write of %s with no read-back in between", box, n.Array, w.box)
			break
		}
	}
	as.writes.add(ioEvent{box: box, step: s.steps, buf: n.Buffer})
	if !as.covered.add(box, s.c.opt.MaxEvents) || len(as.writes.list) > s.c.opt.MaxEvents {
		as.skip = true
		s.c.rep.Truncated = true
	}
}
