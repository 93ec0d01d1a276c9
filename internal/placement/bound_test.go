package placement

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// candidateCostAt evaluates a candidate's true modelled I/O time at one
// tile assignment, pricing its disk terms from the machine directly.
func candidateCostAt(c *Candidate, tiles, ranges []int64, d machine.Disk) float64 {
	total := 0.0
	for _, tm := range c.Terms {
		v := tm.Eval(tiles, ranges)
		switch tm.Kind {
		case ReadBytes:
			total += v / d.ReadBandwidth
		case WriteBytes:
			total += v / d.WriteBandwidth
		case ReadOps, WriteOps:
			total += v * d.SeekTime
		}
	}
	return total
}

// tileSamples builds a deterministic set of tile assignments covering the
// corners (all 1, all N) and log-uniform random interior points.
func tileSamples(ranges []int64, n int) [][]int64 {
	rng := rand.New(rand.NewSource(7))
	ones, full := make([]int64, len(ranges)), append([]int64(nil), ranges...)
	for x := range ones {
		ones[x] = 1
	}
	out := [][]int64{ones, full}
	for i := 0; i < n; i++ {
		tiles := make([]int64, len(ranges))
		for x, nx := range ranges {
			v := int64(math.Exp(rng.Float64() * math.Log(float64(nx))))
			tiles[x] = min(max(v, 1), nx)
		}
		out = append(out, tiles)
	}
	return out
}

// TestLowerBoundBelowTrueCost checks, over the full two-index candidate
// cross product, that the analytic lower bound never exceeds the true
// candidate cost at any sampled tile assignment — the soundness property
// behind incumbent pruning.
func TestLowerBoundBelowTrueCost(t *testing.T) {
	m := fig4Model(t)
	ranges := m.Ranges
	samples := tileSamples(ranges, 25)
	checked := 0
	for _, ch := range m.Choices {
		for i := range ch.Candidates {
			c := &ch.Candidates[i]
			lb := c.LowerBoundSeconds(ranges)
			for _, tiles := range samples {
				cost := candidateCostAt(c, tiles, ranges, m.Cfg.Disk)
				if lb > cost*(1+1e-9) {
					t.Fatalf("%s %q: lower bound %g exceeds true cost %g at tiles %v",
						ch.Name, c.Label, lb, cost, tiles)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no candidates checked")
	}
}

// TestTermLowerBound checks the per-term bound on hand-built terms.
func TestTermLowerBound(t *testing.T) {
	const i, j = 0, 1
	ranges := []int64{i: 100, j: 40}
	// T_i · ceil(N_i/T_i) ≥ N_i: the paired factors bound to the range.
	paired := Term{Coeff: 2, Tiles: []int{i}, Trips: []int{i}}
	if got := paired.LowerBound(ranges); got != 200 {
		t.Fatalf("paired bound = %g, want 200", got)
	}
	// Unpaired tile or trip factors only guarantee ≥ 1.
	lone := Term{Coeff: 3, Tiles: []int{i}, Trips: []int{j}}
	if got := lone.LowerBound(ranges); got != 3 {
		t.Fatalf("unpaired bound = %g, want 3", got)
	}
	// Full-range factors multiply in exactly.
	fullT := Term{Coeff: 1, Fulls: []int{i, j}}
	if got := fullT.LowerBound(ranges); got != 4000 {
		t.Fatalf("fulls bound = %g, want 4000", got)
	}
	// The bound never exceeds the evaluation anywhere.
	for _, tm := range []Term{paired, lone, fullT,
		{Coeff: 5, Fulls: []int{j}, Tiles: []int{i, i}, Trips: []int{i}}} {
		lb := tm.LowerBound(ranges)
		for _, tiles := range tileSamples(ranges, 30) {
			if v := tm.Eval(tiles, ranges); lb > v*(1+1e-9) {
				t.Fatalf("term %v: bound %g > eval %g at %v", tm, lb, v, tiles)
			}
		}
	}
}

// TestBoundFilterInvariants checks the incumbent filter's contract: a
// huge incumbent prunes nothing; a tight incumbent prunes exactly the
// candidates whose bound exceeds it, never empties a choice, and counts
// what it dropped.
func TestBoundFilterInvariants(t *testing.T) {
	base := fig4Model(t)
	enum := func(incumbent float64) *Model {
		m, err := Enumerate(base.Tree, base.Cfg, Options{BoundIncumbent: incumbent})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	loose := enum(math.MaxFloat64)
	if loose.BoundPruned != 0 {
		t.Fatalf("infinite incumbent pruned %d candidates", loose.BoundPruned)
	}
	for i, ch := range loose.Choices {
		if len(ch.Candidates) != len(base.Choices[i].Candidates) {
			t.Fatalf("%s: loose incumbent changed the candidate set", ch.Name)
		}
	}

	// An impossibly tight incumbent: everything but the cheapest-bound
	// candidate per choice goes.
	tight := enum(1e-12)
	totalBase, totalTight := 0, 0
	for i, ch := range tight.Choices {
		if len(ch.Candidates) == 0 {
			t.Fatalf("%s: filter emptied the choice", ch.Name)
		}
		totalBase += len(base.Choices[i].Candidates)
		totalTight += len(ch.Candidates)
	}
	if got := totalBase - totalTight; got != tight.BoundPruned {
		t.Fatalf("BoundPruned = %d, candidate diff = %d", tight.BoundPruned, got)
	}
	if tight.BoundPruned == 0 {
		t.Fatal("tight incumbent pruned nothing")
	}

	// A mid-range incumbent: every pruned candidate's bound must exceed
	// it, every kept candidate's bound must not (or be the choice's
	// cheapest).
	ranges := base.Ranges
	mid := 0.0
	for _, ch := range base.Choices {
		min := math.MaxFloat64
		for i := range ch.Candidates {
			if lb := ch.Candidates[i].LowerBoundSeconds(ranges); lb < min {
				min = lb
			}
		}
		mid += min
	}
	mid *= 4
	pruned := enum(mid)
	for ci, ch := range pruned.Choices {
		keptLabels := map[string]bool{}
		minLB := math.MaxFloat64
		for i := range ch.Candidates {
			keptLabels[ch.Candidates[i].Label] = true
			if lb := ch.Candidates[i].LowerBoundSeconds(ranges); lb < minLB {
				minLB = lb
			}
		}
		for i := range base.Choices[ci].Candidates {
			c := &base.Choices[ci].Candidates[i]
			lb := c.LowerBoundSeconds(ranges)
			if keptLabels[c.Label] {
				if lb > mid && len(ch.Candidates) > 1 {
					t.Fatalf("%s %q: kept with bound %g > incumbent %g", ch.Name, c.Label, lb, mid)
				}
			} else if lb <= mid {
				t.Fatalf("%s %q: pruned although bound %g ≤ incumbent %g", ch.Name, c.Label, lb, mid)
			}
		}
	}
}
