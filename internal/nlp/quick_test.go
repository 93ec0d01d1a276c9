package nlp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Encode followed by Selected/Decode recovers the selection and
// (clamped) tiles, for random selections and tiles.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	p := fig4Problem(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tiles := map[string]int64{}
		for i, v := range p.TileVars {
			tiles[v] = 1 + r.Int63n(p.Ranges[i])
		}
		sel := map[string]int{}
		for _, ch := range p.Choices {
			sel[ch.Name] = r.Intn(ch.M)
		}
		x := p.Encode(tiles, sel)
		got := p.Selected(x)
		for ci, ch := range p.Choices {
			if got[ci] != sel[ch.Name] {
				return false
			}
		}
		a := p.Decode(x)
		for v, want := range tiles {
			if a.Tiles[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the objective equals the sum of the selected candidates'
// costs, for random assignments, up to rounding.
func TestQuickObjectiveIsSelectionSum(t *testing.T) {
	p := fig4Problem(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tiles := map[string]int64{}
		for i, v := range p.TileVars {
			tiles[v] = 1 + r.Int63n(p.Ranges[i])
		}
		sel := map[string]int{}
		selIdx := make([]int, len(p.Choices))
		for ci, ch := range p.Choices {
			k := r.Intn(ch.M)
			sel[ch.Name] = k
			selIdx[ci] = k
		}
		x := p.Encode(tiles, sel)
		// Objective sums every term in one running total and
		// SelectionObjective sums per-candidate totals, so the two differ
		// by rounding, relative to objectives of ~1e7 s.
		obj := p.Objective(x)
		return math.Abs(obj-p.SelectionObjective(x, selIdx)) <= 1e-12*math.Abs(obj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
