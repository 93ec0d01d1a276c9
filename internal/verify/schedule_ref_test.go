package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
)

// This file holds the oracle of the indexed schedule walk: the linear-scan
// walk it replaced, kept test-only, and the differential test that holds
// the indexed walk to the same reports. Every hazard query here scans the
// array's whole event or fragment list.

// intersect returns the overlap of a and b and whether it is non-empty.
func intersect(a, b sbox) (sbox, bool) {
	lo := make([]int64, len(a.lo))
	hi := make([]int64, len(a.lo))
	for i := range a.lo {
		lo[i] = max(a.lo[i], b.lo[i])
		hi[i] = min(a.hi[i], b.hi[i])
		if lo[i] >= hi[i] {
			return sbox{}, false
		}
	}
	return sbox{lo: lo, hi: hi}, true
}

// contains reports whether outer fully contains inner.
func contains(outer, inner sbox) bool {
	for i := range inner.lo {
		if inner.lo[i] < outer.lo[i] || inner.hi[i] > outer.hi[i] {
			return false
		}
	}
	return true
}

// subtractBox returns b \ c as up to 2·rank disjoint boxes (slab
// decomposition, one dimension at a time, on a copy of b narrowed to the
// overlap as the slabs are cut off).
func subtractBox(b, c sbox) []sbox {
	ov, ok := intersect(b, c)
	if !ok {
		return []sbox{b}
	}
	var out []sbox
	cur := sbox{lo: append([]int64(nil), b.lo...), hi: append([]int64(nil), b.hi...)}
	for i := range b.lo {
		if cur.lo[i] < ov.lo[i] {
			below := sbox{lo: append([]int64(nil), cur.lo...), hi: append([]int64(nil), cur.hi...)}
			below.hi[i] = ov.lo[i]
			out = append(out, below)
		}
		if ov.hi[i] < cur.hi[i] {
			above := sbox{lo: append([]int64(nil), cur.lo...), hi: append([]int64(nil), cur.hi...)}
			above.lo[i] = ov.hi[i]
			out = append(out, above)
		}
		cur.lo[i] = ov.lo[i]
		cur.hi[i] = ov.hi[i]
	}
	return out
}

// refRegion is region without the index.
type refRegion struct {
	boxes []sbox
	full  bool
}

func (r *refRegion) add(b sbox, cap int) bool {
	if r.full {
		return true
	}
	frontier := []sbox{b}
	for _, c := range r.boxes {
		var next []sbox
		for _, f := range frontier {
			next = append(next, subtractBox(f, c)...)
		}
		frontier = next
		if len(frontier) == 0 {
			return true
		}
	}
	r.boxes = append(r.boxes, frontier...)
	return len(r.boxes) <= cap
}

func (r *refRegion) covers(b sbox) bool {
	if r.full {
		return true
	}
	frontier := []sbox{b}
	for _, c := range r.boxes {
		var next []sbox
		for _, f := range frontier {
			next = append(next, subtractBox(f, c)...)
		}
		frontier = next
		if len(frontier) == 0 {
			return true
		}
	}
	return false
}

type refArraySched struct {
	da      codegen.DiskArray
	covered refRegion
	writes  []ioEvent
	reads   []ioEvent
	skip    bool
}

type refScheduler struct {
	c     *checker
	base  map[string]int64
	stack []string
	state map[string]*refArraySched
	steps int
	done  bool
}

func (s *refScheduler) pos() string {
	if len(s.stack) == 0 {
		return "top"
	}
	parts := make([]string, len(s.stack))
	for i, idx := range s.stack {
		parts[i] = fmt.Sprintf("%s=%d", idx, s.base[idx])
	}
	return strings.Join(parts, ",")
}

func (s *refScheduler) section(b *codegen.Buffer) sbox {
	lo := make([]int64, len(b.Dims))
	shape := make([]int64, len(b.Dims))
	for i, d := range b.Dims {
		n := s.c.p.Prog.Ranges[d.Index]
		switch d.Class {
		case placement.ExtTile:
			base := s.base[d.Index]
			lo[i] = base
			shape[i] = min(s.c.p.Tiles[d.Index], n-base)
		case placement.ExtFull:
			lo[i] = 0
			shape[i] = n
		default: // ExtOne
			lo[i] = s.base[d.Index]
			shape[i] = 1
		}
	}
	return boxOf(lo, shape)
}

// refSchedule is checker.schedule with linear scans.
func (c *checker) refSchedule() {
	s := &refScheduler{c: c, base: map[string]int64{}, state: map[string]*refArraySched{}}
	names := make([]string, 0, len(c.arrays))
	for name := range c.arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		da := c.arrays[name]
		as := &refArraySched{da: da}
		if da.Kind == loops.Input {
			as.covered.full = true
		}
		s.state[name] = as
	}
	s.walk(c.p.Body)
	c.rep.Steps = s.steps
	if s.done {
		c.rep.Truncated = true
	}
}

func (s *refScheduler) tick() bool {
	s.steps++
	if s.steps > maxSteps {
		s.done = true
	}
	return !s.done
}

func (s *refScheduler) walk(ns []codegen.Node) {
	for _, n := range ns {
		if s.done {
			return
		}
		switch n := n.(type) {
		case *codegen.Loop:
			if n.Tile < 1 {
				continue
			}
			s.stack = append(s.stack, n.Index)
			for b := int64(0); b < n.Range; b += n.Tile {
				if !s.tick() {
					break
				}
				s.base[n.Index] = b
				s.walk(n.Body)
			}
			s.stack = s.stack[:len(s.stack)-1]
			delete(s.base, n.Index)
		case *codegen.IO:
			if !s.tick() {
				return
			}
			as, ok := s.state[n.Array]
			if !ok || as.skip || s.c.badIO[n] {
				continue
			}
			box := s.section(n.Buffer)
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
			as.covered.full = true
			as.writes = append(as.writes, ioEvent{box: wholeBox(as.da.Dims), step: s.steps})
		}
	}
}

func (s *refScheduler) read(as *refArraySched, n *codegen.IO, box sbox) {
	if !as.covered.covers(box) {
		s.c.diag("S2", n.Array, s.pos(),
			"read of %s from %q is not covered by any earlier write or init", box, n.Array)
	}
	as.reads = append(as.reads, ioEvent{box: box, step: s.steps, buf: n.Buffer})
	if len(as.reads) > s.c.opt.MaxEvents {
		as.skip = true
		s.c.rep.Truncated = true
	}
}

func (s *refScheduler) write(as *refArraySched, n *codegen.IO, box sbox) {
	for _, w := range as.writes {
		ov, ok := intersect(box, w.box)
		if !ok {
			continue
		}
		readBack := false
		for _, r := range as.reads {
			if r.buf == n.Buffer && r.step > w.step && contains(r.box, ov) {
				readBack = true
				break
			}
		}
		if !readBack {
			s.c.diag("S3", n.Array, s.pos(),
				"write of %s to %q overlaps an earlier write of %s with no read-back in between", box, n.Array, w.box)
			break
		}
	}
	as.writes = append(as.writes, ioEvent{box: box, step: s.steps, buf: n.Buffer})
	if !as.covered.add(box, s.c.opt.MaxEvents) || len(as.writes) > s.c.opt.MaxEvents {
		as.skip = true
		s.c.rep.Truncated = true
	}
}

// refCheckOpts is CheckOpts with the linear-scan schedule walk.
func refCheckOpts(p *codegen.Plan, opt Options) *Report {
	c := newChecker(p, opt)
	c.resource()
	c.structural()
	c.lca()
	c.refSchedule()
	c.resume()
	c.producers()
	return c.rep
}

// mutateSchedule returns a copy of ns in which each I/O and init node is
// independently dropped or duplicated with probability 1/8 each, so reads
// lose their producers and writes lose (or repeat) their read-backs.
func mutateSchedule(rng *rand.Rand, ns []codegen.Node) []codegen.Node {
	var out []codegen.Node
	for _, n := range ns {
		switch n := n.(type) {
		case *codegen.Loop:
			l := *n
			l.Body = mutateSchedule(rng, n.Body)
			out = append(out, &l)
			continue
		case *codegen.IO, *codegen.InitPass:
			switch rng.Intn(8) {
			case 0:
				continue
			case 1:
				out = append(out, n)
			}
		}
		out = append(out, n)
	}
	return out
}

// TestScheduleIndexMatchesLinearScan holds the indexed schedule walk to
// the linear-scan oracle: over random tiles and placement selections of
// the two-index and two four-index programs, half of them with I/O and
// init nodes dropped or duplicated, and at three event caps, every report
// (diagnostics in order, steps, truncation, checkpointability) must be
// identical.
func TestScheduleIndexMatchesLinearScan(t *testing.T) {
	progs := []struct {
		prog   *loops.Program
		cfg    machine.Config
		trials int
	}{
		{loops.TwoIndexFused(6, 8), machine.Small(1 << 20), 500},
		{loops.FourIndexAbstract(6, 4), machine.Small(1 << 22), 600},
		// The oracle's scans are quadratic in the events of a walk, and
		// small tiles here give thousands of them.
		{loops.FourIndexAbstract(13, 9), machine.Small(1 << 22), 100},
	}
	if testing.Short() {
		for i := range progs {
			progs[i].trials /= 5
		}
	}
	rng := rand.New(rand.NewSource(33))
	var reports, withDiags, truncated int
	for _, pc := range progs {
		p := buildProblem(t, pc.prog, pc.cfg)
		for trial := 0; trial < pc.trials; trial++ {
			plan := randomPlan(t, rng, p)
			if trial%2 == 1 {
				mutated := *plan
				mutated.Body = mutateSchedule(rng, plan.Body)
				plan = &mutated
			}
			for _, maxEvents := range []int{0, 4, 32} {
				opt := Options{MaxEvents: maxEvents}
				got, want := CheckOpts(plan, opt), refCheckOpts(plan, opt)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d, MaxEvents %d: indexed walk\n%s(steps %d, truncated %v)\nlinear scan\n%s(steps %d, truncated %v)\nplan:\n%s",
						pc.prog.Name, trial, maxEvents, got, got.Steps, got.Truncated, want, want.Steps, want.Truncated, plan)
				}
				reports++
				if !got.OK() {
					withDiags++
				}
				if got.Truncated {
					truncated++
				}
			}
		}
	}
	t.Logf("%d identical reports: %d with diagnostics, %d truncated", reports, withDiags, truncated)
	if withDiags == 0 || truncated == 0 || withDiags == reports {
		t.Fatal("the generator no longer exercises both clean and failing, truncated and complete walks")
	}
}

// randomPlan generates p's plan at uniformly random tiles and placement
// selections.
func randomPlan(t *testing.T, rng *rand.Rand, p *nlp.Problem) *codegen.Plan {
	t.Helper()
	tiles := map[string]int64{}
	for i, v := range p.TileVars {
		tiles[v] = 1 + rng.Int63n(p.Ranges[i])
	}
	sel := map[string]int{}
	for ci := 0; ci < p.NumChoices(); ci++ {
		sel[p.Choices[ci].Name] = rng.Intn(p.Choices[ci].M)
	}
	plan, err := codegen.Generate(p, p.Encode(tiles, sel))
	if err != nil {
		t.Fatalf("tiles %v sel %v: %v", tiles, sel, err)
	}
	return plan
}
