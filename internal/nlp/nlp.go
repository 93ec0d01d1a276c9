// Package nlp encodes a placement model as the discrete nonlinear
// constrained minimization problem of Sec. 4.2: integer tile-size
// variables T_x ∈ [1, N_x], binary placement variables λ_k (⌈log2 m⌉ bits
// per array with m candidate placements), an objective equal to the
// modelled disk I/O time, and constraints for the memory limit and the
// minimum I/O block sizes. It can also emit the model in AMPL, the input
// format the paper fed to the DCS solver.
package nlp

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dcs"
	"repro/internal/placement"
)

// Problem is the compiled optimization problem. The decision vector x has
// len(TileVars) integer entries (tile sizes, in TileVars order) followed
// by NumLambda binary entries (0/1).
type Problem struct {
	Model *placement.Model
	// TileVars and Ranges are the model's: Ranges[i] is the full range
	// of TileVars[i] (its upper bound).
	TileVars []string
	Ranges   []int64
	// ChoiceEnc describes the λ encoding of each array choice.
	Choices   []ChoiceEnc
	NumLambda int

	cands [][]candidate
}

// ChoiceEnc is the binary encoding of one array choice: Bits λ variables
// starting at BitOffset select among M candidates (codes ≥ M select the
// last candidate so the mapping is total).
type ChoiceEnc struct {
	Name      string
	BitOffset int
	Bits      int
	M         int
}

// Build compiles a placement model into an optimization problem with the
// paper's binary λ encoding. Each candidate's priced terms
// (placement.Candidate.Terms) are copied into its evaluator terms, with
// the full-range factors folded into the coefficient.
func Build(m *placement.Model) *Problem {
	p := &Problem{
		Model:    m,
		TileVars: m.TileVars,
		Ranges:   m.Ranges,
	}
	off := 0
	for _, ch := range m.Choices {
		bits := bitsFor(len(ch.Candidates))
		p.Choices = append(p.Choices, ChoiceEnc{Name: ch.Name, BitOffset: off, Bits: bits, M: len(ch.Candidates)})
		off += bits

		cc := make([]candidate, len(ch.Candidates))
		for i := range ch.Candidates {
			k := &cc[i]
			for _, t := range ch.Candidates[i].Terms {
				ft := term{coeff: t.Coeff, scale: t.Scale, kind: t.Kind, idx: slices.Concat(t.Tiles, t.Trips), nTiles: len(t.Tiles)}
				for _, x := range t.Fulls {
					ft.coeff *= float64(p.Ranges[x])
				}
				for _, x := range ft.idx {
					ft.mask |= 1 << (x & 63)
				}
				k.mask |= ft.mask
				switch {
				case t.Kind < placement.Memory:
					k.nCost++
				case t.Kind == placement.Memory:
					k.nMem++
				}
				k.terms = append(k.terms, ft)
			}
		}
		p.cands = append(p.cands, cc)
	}
	p.NumLambda = off
	return p
}

func bitsFor(m int) int {
	if m <= 1 {
		return 0
	}
	b := 0
	for (1 << b) < m {
		b++
	}
	return b
}

// Dim returns the length of the decision vector.
func (p *Problem) Dim() int { return len(p.TileVars) + p.NumLambda }

// Bounds returns the inclusive bounds of variable i.
func (p *Problem) Bounds(i int) (lo, hi int64) {
	if i < len(p.TileVars) {
		return 1, p.Ranges[i]
	}
	return 0, 1
}

// Selected returns the candidate index chosen by x for each choice
// (codes ≥ M clamp to the last candidate).
func (p *Problem) Selected(x []int64) []int {
	out := make([]int, len(p.Choices))
	for ci := range out {
		out[ci] = p.code(ci, x)
	}
	return out
}

// Objective returns the modelled disk I/O time (seconds) of the selection
// and tile sizes in x: seek time per operation plus transfer time at the
// read/write bandwidths.
func (p *Problem) Objective(x []int64) float64 {
	var buf [maxStackTiles]float64
	trips := p.tripsOf(x, buf[:0])
	total := 0.0
	for ci, cands := range p.cands {
		k := p.code(ci, x)
		total = accumulate(total, cands[k].cost(), x, trips)
	}
	return total
}

// MemoryUsage returns the total bytes of all selected buffers.
func (p *Problem) MemoryUsage(x []int64) float64 {
	var buf [maxStackTiles]float64
	trips := p.tripsOf(x, buf[:0])
	total := 0.0
	for ci, cands := range p.cands {
		k := p.code(ci, x)
		total = accumulate(total, cands[k].mem(), x, trips)
	}
	return total
}

// Violations returns the constraint violations of x, each ≥ 0 with 0
// meaning satisfied: [0] the memory limit (relative overrun), then one
// entry per choice aggregating its minimum-block-size violations
// (relative shortfall).
func (p *Problem) Violations(x []int64) []float64 {
	var buf [maxStackTiles]float64
	trips := p.tripsOf(x, buf[:0])
	out := make([]float64, 1+len(p.Choices))
	mem := 0.0
	for ci, cands := range p.cands {
		k := p.code(ci, x)
		mem = accumulate(mem, cands[k].mem(), x, trips)
		out[1+ci] = accumulate(0, cands[k].blocks(), x, trips)
	}
	out[0] = p.memOverrun(mem)
	return out
}

// Feasible reports whether x satisfies all constraints.
func (p *Problem) Feasible(x []int64) bool {
	for _, v := range p.Violations(x) {
		if v > 0 {
			return false
		}
	}
	return true
}

// Groups exposes the λ bit groups to the solver (dcs.GroupedProblem): each
// choice's bits form one categorical group with M valid codes, letting the
// solver reselect a placement in a single move.
func (p *Problem) Groups() []dcs.Group {
	var out []dcs.Group
	for _, ch := range p.Choices {
		if ch.Bits == 0 {
			continue
		}
		out = append(out, dcs.Group{
			Offset: len(p.TileVars) + ch.BitOffset,
			Len:    ch.Bits,
			Codes:  int64(ch.M),
		})
	}
	return out
}

// NumChoices returns the number of array choices.
func (p *Problem) NumChoices() int { return len(p.Choices) }

// CandidateCost returns the modelled I/O time (seconds) of candidate k of
// choice ci at the tile sizes in x (the λ portion of x is ignored).
func (p *Problem) CandidateCost(ci, k int, x []int64) float64 {
	var buf [maxStackTiles]float64
	return accumulate(0, p.cands[ci][k].cost(), x, p.tripsOf(x, buf[:0]))
}

// CandidateMemory returns the buffer bytes candidate k of choice ci
// allocates at the tile sizes in x.
func (p *Problem) CandidateMemory(ci, k int, x []int64) float64 {
	var buf [maxStackTiles]float64
	return accumulate(0, p.cands[ci][k].mem(), x, p.tripsOf(x, buf[:0]))
}

// CandidateBlocksOK reports whether candidate k of choice ci satisfies the
// minimum I/O block sizes at the tile sizes in x.
func (p *Problem) CandidateBlocksOK(ci, k int, x []int64) bool {
	var buf [maxStackTiles]float64
	trips := p.tripsOf(x, buf[:0])
	blocks := p.cands[ci][k].blocks()
	for j := range blocks {
		if blocks[j].value(x, trips) > 0 {
			return false
		}
	}
	return true
}

// SelectionObjective sums the candidate costs of an explicit selection.
func (p *Problem) SelectionObjective(x []int64, sel []int) float64 {
	total := 0.0
	for ci, k := range sel {
		total += p.CandidateCost(ci, k, x)
	}
	return total
}

// Assignment unpacks a decision vector into named tile sizes and the
// selected candidate per choice.
type Assignment struct {
	Tiles    map[string]int64
	Selected map[string]*placement.Candidate
	// Objective is the modelled I/O time in seconds; MemoryBytes the total
	// buffer memory.
	Objective   float64
	MemoryBytes float64
}

// Decode unpacks x.
func (p *Problem) Decode(x []int64) Assignment {
	a := Assignment{
		Tiles:       map[string]int64{},
		Selected:    map[string]*placement.Candidate{},
		Objective:   p.Objective(x),
		MemoryBytes: p.MemoryUsage(x),
	}
	for i, v := range p.TileVars {
		a.Tiles[v] = x[i]
	}
	for ci, sel := range p.Selected(x) {
		a.Selected[p.Model.Choices[ci].Name] = &p.Model.Choices[ci].Candidates[sel]
	}
	return a
}

// Encode builds a decision vector from named tile sizes and candidate
// selections (by index per choice name); missing tiles default to 1,
// missing selections to candidate 0.
func (p *Problem) Encode(tiles map[string]int64, selected map[string]int) []int64 {
	x := make([]int64, p.Dim())
	for i, v := range p.TileVars {
		t := tiles[v]
		if t < 1 {
			t = 1
		}
		if t > p.Ranges[i] {
			t = p.Ranges[i]
		}
		x[i] = t
	}
	for _, ch := range p.Choices {
		code := selected[ch.Name]
		if code < 0 {
			code = 0
		}
		if code >= ch.M {
			code = ch.M - 1
		}
		for b := 0; b < ch.Bits; b++ {
			x[len(p.TileVars)+ch.BitOffset+b] = int64(code >> b & 1)
		}
	}
	return x
}

// EncodeAssignment maps a (possibly foreign) assignment into p's decision
// vector: tile sizes are matched by loop-index name and clamped to p's
// ranges, candidate selections by label within the same-named choice
// (labels are stable across enumerations of the same program). It returns
// the vector and the number of choices whose selection was matched —
// the warm-start remapping behind incremental re-solves, where the
// previous sweep point's solution seeds the next problem even though the
// candidate lists were enumerated (and possibly pruned) independently.
// Unmatched selections fall back to candidate 0.
func (p *Problem) EncodeAssignment(a Assignment) ([]int64, int) {
	sel := map[string]int{}
	matched := 0
	for ci := range p.Model.Choices {
		ch := &p.Model.Choices[ci]
		prev := a.Selected[ch.Name]
		if prev == nil {
			continue
		}
		for k := range ch.Candidates {
			if ch.Candidates[k].Label == prev.Label {
				sel[ch.Name] = k
				matched++
				break
			}
		}
	}
	return p.Encode(a.Tiles, sel), matched
}

// Describe renders an assignment for humans, in deterministic order.
func (a Assignment) Describe() string {
	s := fmt.Sprintf("objective %.3f s, memory %.3g bytes\n", a.Objective, a.MemoryBytes)
	names := make([]string, 0, len(a.Selected))
	for name := range a.Selected {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s += fmt.Sprintf("  %s: %s\n", name, a.Selected[name].Label)
	}
	tv := make([]string, 0, len(a.Tiles))
	for v := range a.Tiles {
		tv = append(tv, v)
	}
	sort.Strings(tv)
	for _, v := range tv {
		s += fmt.Sprintf("  T%s = %d\n", v, a.Tiles[v])
	}
	return s
}
