// Package sampling implements the Uniform Sampling Approach the paper
// compares against (the memory-to-cache algorithm of Cociorva et al.
// extended to the disk-memory hierarchy): the tile-size search space is
// sampled uniformly in a logarithmic fashion along each dimension and
// explored by brute force; for each tile combination, disk I/O statements
// are placed greedily — each array's I/O is pushed as far out as the
// memory limit allows ("immediately inside those loops at which the
// memory limit is exceeded").
package sampling

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/nlp"
)

// Options configure the search.
type Options struct {
	// GridFactor is the multiplicative spacing of the logarithmic tile
	// grid (default 2: 1, 2, 4, ..., N).
	GridFactor int64
	// MaxCombos caps the number of tile combinations explored (0 =
	// unlimited). When the full grid exceeds the cap, the grid spacing is
	// widened until it fits, preserving uniform logarithmic coverage.
	MaxCombos int64
	// Workers splits the grid across goroutines (≤1: serial). Results are
	// identical to the serial search: ties between equally good
	// configurations break toward the lowest grid position.
	Workers int
}

// Result is the outcome of the brute-force search.
type Result struct {
	// X is the decision vector of the best configuration found.
	X []int64
	// Selected is the greedy candidate selection per choice.
	Selected []int
	// Objective is the modelled I/O time in seconds.
	Objective float64
	// Combos is the number of tile combinations evaluated; FeasibleCombos
	// how many admitted a greedy placement within the memory limit.
	Combos, FeasibleCombos int64
	// GridFactor actually used after applying MaxCombos.
	GridFactor int64
}

// ctxEvery is how many combinations a search range evaluates between
// two looks at its context.
const ctxEvery = 4096

// Search explores the sampled tile grid and returns the best
// configuration. Once ctx is done every worker stops within ctxEvery
// combinations, and Search returns the best feasible configuration
// found so far, or an error wrapping ctx.Err() if there is none.
func Search(ctx context.Context, p *nlp.Problem, opt Options) (Result, error) {
	if opt.GridFactor < 2 {
		opt.GridFactor = 2
	}
	factor := opt.GridFactor
	grids := buildGrids(p, factor)
	if opt.MaxCombos > 0 {
		for combos(grids) > opt.MaxCombos {
			factor *= 2
			grids = buildGrids(p, factor)
			if factor > 1<<40 {
				break
			}
		}
	}

	prio := candidatePriorities(p)
	total := combos(grids)
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	if int64(workers) > total {
		workers = int(total)
	}

	var res Result
	if workers == 1 {
		res = searchRange(ctx, p, grids, prio, 0, total)
	} else {
		parts := make([]Result, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := total * int64(w) / int64(workers)
			hi := total * int64(w+1) / int64(workers)
			wg.Add(1)
			go func(w int, lo, hi int64) {
				defer wg.Done()
				parts[w] = searchRange(ctx, p, grids, prio, lo, hi)
			}(w, lo, hi)
		}
		wg.Wait()
		res = Result{Objective: -1}
		for _, part := range parts {
			res.Combos += part.Combos
			res.FeasibleCombos += part.FeasibleCombos
			// Strict less-than keeps the earliest grid position on ties,
			// matching the serial search exactly.
			if part.Objective >= 0 && (res.Objective < 0 || part.Objective < res.Objective) {
				res.Objective = part.Objective
				res.X = part.X
				res.Selected = part.Selected
			}
		}
	}
	res.GridFactor = factor
	if res.Objective < 0 {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("sampling: search stopped before a feasible configuration: %w", err)
		}
		return res, fmt.Errorf("sampling: no feasible configuration in the sampled grid")
	}
	// Write the selection into the λ bits so res.X is a complete decision
	// vector.
	tiles := map[string]int64{}
	for i, v := range p.TileVars {
		tiles[v] = res.X[i]
	}
	selByName := map[string]int{}
	for ci, k := range res.Selected {
		selByName[p.Choices[ci].Name] = k
	}
	res.X = p.Encode(tiles, selByName)
	return res, nil
}

// searchRange explores grid combinations [lo, hi) (combination c decodes
// mixed-radix with dimension 0 least significant) and returns the local
// best, stopping early once ctx is done.
func searchRange(ctx context.Context, p *nlp.Problem, grids [][]int64, prio [][]int, lo, hi int64) Result {
	nv := len(grids)
	x := make([]int64, p.Dim())
	sel := make([]int, p.NumChoices())
	res := Result{Objective: -1}

	// Decode the starting combination.
	idx := make([]int, nv)
	c := lo
	for d := 0; d < nv; d++ {
		idx[d] = int(c % int64(len(grids[d])))
		c /= int64(len(grids[d]))
	}
	for n := lo; n < hi; n++ {
		if (n-lo)%ctxEvery == 0 && ctx.Err() != nil {
			break
		}
		for i := 0; i < nv; i++ {
			x[i] = grids[i][idx[i]]
		}
		res.Combos++
		if greedyPlace(p, x, sel, prio) {
			res.FeasibleCombos++
			obj := p.SelectionObjective(x, sel)
			if res.Objective < 0 || obj < res.Objective {
				res.Objective = obj
				res.X = append(res.X[:0], x...)
				res.Selected = append(res.Selected[:0], sel...)
			}
		}
		// Odometer increment (dimension 0 least significant).
		for d := 0; d < nv; d++ {
			idx[d]++
			if idx[d] < len(grids[d]) {
				break
			}
			idx[d] = 0
		}
	}
	return res
}

// buildGrids returns, per tile variable, the logarithmically sampled
// values 1, f, f², ..., plus the full range.
func buildGrids(p *nlp.Problem, factor int64) [][]int64 {
	grids := make([][]int64, len(p.TileVars))
	for i := range p.TileVars {
		n := p.Ranges[i]
		var g []int64
		for v := int64(1); v < n; v *= factor {
			g = append(g, v)
		}
		g = append(g, n)
		grids[i] = g
	}
	return grids
}

func combos(grids [][]int64) int64 {
	n := int64(1)
	for _, g := range grids {
		n *= int64(len(g))
		if n < 0 { // overflow: certainly above any cap
			return 1 << 62
		}
	}
	return n
}

// candidatePriorities orders each choice's candidates outermost-first (in
// the greedy spirit: keep data as long in memory / as far out as fits).
// In-memory candidates come first, then ascending placement depth.
func candidatePriorities(p *nlp.Problem) [][]int {
	out := make([][]int, p.NumChoices())
	for ci := range out {
		ch := p.Model.Choices[ci]
		order := make([]int, len(ch.Candidates))
		for i := range order {
			order[i] = i
		}
		depth := func(k int) int {
			c := &ch.Candidates[k]
			if c.InMemory {
				return -1
			}
			d := 0
			if c.Read != nil {
				d += c.Read.Pos.Depth
			}
			if c.Write != nil {
				d += c.Write.Pos.Depth
			}
			return d
		}
		sort.SliceStable(order, func(a, b int) bool { return depth(order[a]) < depth(order[b]) })
		out[ci] = order
	}
	return out
}

// greedyPlace assigns each choice the outermost candidate that fits the
// remaining memory budget and the block-size constraints; returns false if
// some array has no fitting candidate.
func greedyPlace(p *nlp.Problem, x []int64, sel []int, prio [][]int) bool {
	remaining := float64(p.Model.Cfg.MemoryLimit)
	for ci := 0; ci < p.NumChoices(); ci++ {
		placed := false
		for _, k := range prio[ci] {
			if !p.CandidateBlocksOK(ci, k, x) {
				continue
			}
			m := p.CandidateMemory(ci, k, x)
			if m <= remaining {
				remaining -= m
				sel[ci] = k
				placed = true
				break
			}
		}
		if !placed {
			return false
		}
	}
	return true
}

// Describe summarizes the search for reports.
func (r Result) Describe(p *nlp.Problem) string {
	a := p.Decode(r.X)
	return fmt.Sprintf("uniform sampling: %d combos (%d feasible, grid ×%d), best %.3f s\n%s",
		r.Combos, r.FeasibleCombos, r.GridFactor, r.Objective, a.Describe())
}
