package nlp

import (
	"math"

	"repro/internal/dcs"
	"repro/internal/placement"
)

// This file is the problem's one evaluation routine. Every candidate is
// flattened at Build into one slice of terms; Objective, MemoryUsage,
// Violations and the Candidate* accessors walk those slices with every
// term recomputed, and the per-solver evaluator walks the same slices
// recomputing only the terms whose tile variables or choice changed
// since its previous call and re-summing only from the first choice
// whose contribution changed. Both sum in the same order with the same
// operations, so their results are bitwise equal.

// term is a placement.Priced flattened for evaluation.
type term struct {
	coeff float64 // includes the product of all full-range factors
	scale float64 // placement.Priced.Scale
	kind  placement.Kind
	// idx[:nTiles] multiply by x[i], idx[nTiles:] by ceil(Ranges[i]/x[i]).
	idx    []int
	nTiles int
	mask   uint64 // bit i&63 for every tile variable i in idx
}

// value is the term's contribution at tile vector x, with trips[i] =
// ceil(Ranges[i]/x[i]).
func (t *term) value(x []int64, trips []float64) float64 {
	v := t.coeff
	for _, i := range t.idx[:t.nTiles] {
		v *= float64(x[i])
	}
	for _, i := range t.idx[t.nTiles:] {
		v *= trips[i]
	}
	return t.kind.Price(v, t.scale)
}

// candidate is one placement candidate's flattened terms: the cost terms
// (read bytes, write bytes, read ops, write ops), then the memory terms,
// then the minimum-block terms.
type candidate struct {
	terms       []term
	nCost, nMem int
	mask        uint64 // union of the terms' masks
}

func (c *candidate) cost() []term   { return c.terms[:c.nCost] }
func (c *candidate) mem() []term    { return c.terms[c.nCost : c.nCost+c.nMem] }
func (c *candidate) blocks() []term { return c.terms[c.nCost+c.nMem:] }

// accumulate adds the values of ts, in order, to total.
func accumulate(total float64, ts []term, x []int64, trips []float64) float64 {
	for j := range ts {
		total += ts[j].value(x, trips)
	}
	return total
}

// maxStackTiles is the tile count up to which the one-shot evaluations
// keep their trip table on the stack.
const maxStackTiles = 64

// tripsOf fills buf with ceil(Ranges[i]/x[i]) for every tile variable.
func (p *Problem) tripsOf(x []int64, buf []float64) []float64 {
	for i, n := range p.Ranges {
		buf = append(buf, float64((n+x[i]-1)/x[i]))
	}
	return buf
}

// code decodes the candidate choice ci selects in x: the binary code of
// its λ bits, with codes ≥ M clamped to the last candidate.
func (p *Problem) code(ci int, x []int64) int {
	ch := &p.Choices[ci]
	k := 0
	for b, v := range x[len(p.TileVars)+ch.BitOffset:][:ch.Bits] {
		if v != 0 {
			k |= 1 << b
		}
	}
	return min(k, ch.M-1)
}

// evaluator is one solver's incremental view of a Problem. It caches the
// previous point — its tile vector and trip counts, its λ bits, each
// choice's selected candidate and the value of each of that candidate's
// terms — and the running objective and memory totals before each
// choice. Eval decodes only the choices whose bits changed, recomputes
// only the terms whose tiles changed, and re-sums from the first choice
// whose contribution changed. It is not safe for concurrent use: each
// solver (each portfolio lane) owns one.
type evaluator struct {
	p *Problem
	// tiles starts at 0, which no tile size takes, sel at −1 and dirty
	// at true, so the first call recomputes everything.
	tiles []int64
	trips []float64
	lam   []int64 // the λ bits of the previous point
	// bitChoice[j] is the choice that owns λ bit j; dirty[ci] marks a
	// choice whose bits changed since it was last decoded.
	bitChoice []int
	dirty     []bool
	sel       []int
	mask      []uint64    // mask[ci]: the tile mask of choice ci's selected candidate
	vals      [][]float64 // vals[ci][j]: term j of choice ci's selected candidate
	// fPre[ci] and memPre[ci] are the objective and memory totals of
	// choices 0..ci−1; fPre[len(Choices)] is f.
	fPre, memPre []float64
	g            []float64
}

// NewEvaluator returns a fresh incremental evaluator over p
// (dcs.EvaluatingProblem). Its results are bitwise equal to Objective
// and Violations; the slice it returns is reused by its next call.
func (p *Problem) NewEvaluator() dcs.Evaluator {
	n := len(p.Choices)
	e := &evaluator{
		p:         p,
		tiles:     make([]int64, len(p.TileVars)),
		trips:     make([]float64, len(p.TileVars)),
		lam:       make([]int64, p.NumLambda),
		bitChoice: make([]int, p.NumLambda),
		dirty:     make([]bool, n),
		sel:       make([]int, n),
		mask:      make([]uint64, n),
		vals:      make([][]float64, n),
		fPre:      make([]float64, n+1),
		memPre:    make([]float64, n+1),
		g:         make([]float64, 1+n),
	}
	for ci, ch := range p.Choices {
		for b := 0; b < ch.Bits; b++ {
			e.bitChoice[ch.BitOffset+b] = ci
		}
	}
	for ci, cands := range p.cands {
		e.sel[ci] = -1
		e.dirty[ci] = true
		m := 0
		for k := range cands {
			m = max(m, len(cands[k].terms))
		}
		e.vals[ci] = make([]float64, m)
	}
	return e
}

// Eval returns Objective(x) and Violations(x). The violation slice is
// owned by the evaluator and valid until its next call.
//
// A choice's cost and memory contribution changed when its selection
// changed or a recomputed cost or memory term differs in its bits from
// the cached one. Choices before the first such choice add exactly what
// they added last call, so their prefix totals stand and the fold
// resumes from there with the same operations in the same order as
// Objective and Violations.
func (e *evaluator) Eval(x []int64) (float64, []float64) {
	p := e.p
	nt := len(e.tiles)
	var changed uint64
	for i, t := range x[:nt] {
		if t != e.tiles[i] {
			e.tiles[i] = t
			e.trips[i] = float64((p.Ranges[i] + t - 1) / t)
			changed |= 1 << (i & 63)
		}
	}
	for j, v := range x[nt:] {
		if v != e.lam[j] {
			e.lam[j] = v
			e.dirty[e.bitChoice[j]] = true
		}
	}
	// first is the first choice whose cost or memory contribution
	// changed; from there on, f and mem are re-summed. Before it, a
	// choice with unchanged bits and tiles has nothing to redo.
	n := len(p.cands)
	first, f, mem := n, 0.0, 0.0
	for ci, cands := range p.cands {
		if first == n && !e.dirty[ci] && changed&e.mask[ci] == 0 {
			continue
		}
		k, blocks := e.sel[ci], false
		if e.dirty[ci] {
			e.dirty[ci] = false
			k = p.code(ci, x)
		}
		c := &cands[k]
		vals := e.vals[ci][:len(c.terms)]
		fold := false
		switch {
		case k != e.sel[ci]:
			e.sel[ci], e.mask[ci] = k, c.mask
			for j := range c.terms {
				vals[j] = c.terms[j].value(x, e.trips)
			}
			fold = true
		case changed&c.mask != 0:
			for j := range c.terms {
				if changed&c.terms[j].mask == 0 {
					continue
				}
				if v := c.terms[j].value(x, e.trips); math.Float64bits(v) != math.Float64bits(vals[j]) {
					vals[j] = v
					if j < c.nCost+c.nMem {
						fold = true
					} else {
						blocks = true
					}
				}
			}
		}
		if fold && first == n {
			first, f, mem = ci, e.fPre[ci], e.memPre[ci]
		}
		if first < n {
			e.fPre[ci], e.memPre[ci] = f, mem
			for _, v := range vals[:c.nCost] {
				f += v
			}
			for _, v := range vals[c.nCost : c.nCost+c.nMem] {
				mem += v
			}
		}
		if fold || blocks {
			short := 0.0
			for _, v := range vals[c.nCost+c.nMem:] {
				short += v
			}
			e.g[1+ci] = short
		}
	}
	if first < n {
		e.fPre[n], e.memPre[n] = f, mem
		e.g[0] = p.memOverrun(mem)
	}
	return e.fPre[n], e.g
}

// memOverrun is the memory-limit violation (relative overrun) of a total
// buffer size.
func (p *Problem) memOverrun(mem float64) float64 {
	limit := float64(p.Model.Cfg.MemoryLimit)
	if over := mem - limit; over > 0 {
		return over / limit
	}
	return 0
}
