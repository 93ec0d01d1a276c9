// Package placement implements step 2 of the out-of-core code generation
// algorithm: for every array of the tiled program it enumerates the legal
// placements of disk read/write statements (Sec. 4.1 of the paper) and
// attaches to each candidate the symbolic disk-I/O-cost and memory-cost
// expressions over the tile-size variables (Sec. 4.2). The resulting model
// is what the nlp package encodes for the DCS solver.
package placement

import (
	"fmt"
	"strings"
)

// Term is a product-form symbolic expression over the tile-size variables:
//
//	Coeff × Π_{x∈Fulls} N_x × Π_{x∈Tiles} T_x × Π_{x∈Trips} ceil(N_x/T_x)
//
// Factors are positions in Model.TileVars, kept in insertion order, and
// may repeat. All disk-cost, op-count and memory-cost expressions of the
// model are single Terms; the objective and the memory constraint are
// sums of λ-selected Terms. T_x·ceil(N_x/T_x) stays two factors: it is
// the padded range, not N_x.
type Term struct {
	Coeff float64
	Fulls []int
	Tiles []int
	Trips []int
}

// One is the multiplicative identity term.
func One() Term { return Term{Coeff: 1} }

// Mul returns the product of two terms.
func (t Term) Mul(u Term) Term {
	return Term{
		Coeff: t.Coeff * u.Coeff,
		Fulls: append(append([]int(nil), t.Fulls...), u.Fulls...),
		Tiles: append(append([]int(nil), t.Tiles...), u.Tiles...),
		Trips: append(append([]int(nil), t.Trips...), u.Trips...),
	}
}

// Eval evaluates the term at the tile sizes tiles, both tiles and ranges
// indexed by tile-variable position.
func (t Term) Eval(tiles, ranges []int64) float64 {
	v := t.Coeff
	for _, x := range t.Fulls {
		v *= float64(ranges[x])
	}
	for _, x := range t.Tiles {
		v *= float64(tiles[x])
	}
	for _, x := range t.Trips {
		v *= float64((ranges[x] + tiles[x] - 1) / tiles[x])
	}
	return v
}

// EvalTileOne evaluates the term with every tile size set to 1 (the
// feasibility probe of the enumeration: tiles contribute 1, trips N_x).
func (t Term) EvalTileOne(ranges []int64) float64 {
	v := t.Coeff
	for _, x := range t.Fulls {
		v *= float64(ranges[x])
	}
	for _, x := range t.Trips {
		v *= float64(ranges[x])
	}
	return v
}

// LowerBound returns a value the term can never go below over any tile
// assignment 1 ≤ T_x ≤ N_x: full-range factors contribute N_x exactly;
// each Tile/Trip factor pair over the same index contributes at least N_x
// (T_x · ceil(N_x/T_x) ≥ N_x — the communication-lower-bound argument of
// Dinh & Demmel applied to the product form); unpaired Tile or Trip
// factors are only known to be ≥ 1. Requires Coeff ≥ 0 (all cost terms
// are).
func (t Term) LowerBound(ranges []int64) float64 {
	v := t.Coeff
	for _, x := range t.Fulls {
		v *= float64(ranges[x])
	}
	tiles, trips := count(t.Tiles, len(ranges)), count(t.Trips, len(ranges))
	for x, n := range trips {
		for range min(n, tiles[x]) {
			v *= float64(ranges[x])
		}
	}
	return v
}

// String renders the term for model dumps, vars naming the positions:
// "8 * Nn * Ti * ceil(Nj/Tj)". Factors print in position order, which
// is name order, as Model.TileVars is sorted.
func (t Term) String(vars []string) string {
	parts := []string{fmt.Sprintf("%g", t.Coeff)}
	for _, f := range []struct {
		xs     []int
		format string
	}{{t.Fulls, "N%[1]s"}, {t.Tiles, "T%[1]s"}, {t.Trips, "ceil(N%[1]s/T%[1]s)"}} {
		for x, n := range count(f.xs, len(vars)) {
			for range n {
				parts = append(parts, fmt.Sprintf(f.format, vars[x]))
			}
		}
	}
	return strings.Join(parts, " * ")
}

// DividesLE reports whether a ≤ b is guaranteed for every tile assignment,
// by cancelling b's factors against a's: identical factors cancel; a
// leftover T_x or ceil(N_x/T_x) in a cancels against an N_x in b (both are
// at most N_x). If a retains uncancelled factors the comparison fails
// (conservatively not comparable). Used for dominance pruning.
func DividesLE(a, b Term) bool {
	if a.Coeff <= 0 || b.Coeff <= 0 {
		return false
	}
	n := 0
	for _, xs := range [][]int{a.Fulls, a.Tiles, a.Trips, b.Fulls, b.Tiles, b.Trips} {
		for _, x := range xs {
			n = max(n, x+1)
		}
	}
	af, at, ac := count(a.Fulls, n), count(a.Tiles, n), count(a.Trips, n)
	bf, bt, bc := count(b.Fulls, n), count(b.Tiles, n), count(b.Trips, n)
	for x := range n {
		// Identical factors cancel; a's leftover tiles, then trips, may
		// cancel against b's leftover fulls.
		fulls := min(af[x], bf[x])
		spare := bf[x] - fulls
		tiles := at[x] - min(at[x], bt[x])
		take := min(tiles, spare)
		trips := ac[x] - min(ac[x], bc[x])
		// Any remaining factor on a's side could exceed b; reject.
		if af[x]-fulls+tiles-take+trips-min(trips, spare-take) > 0 {
			return false
		}
	}
	// Remaining factors on b's side are all ≥ 1, so b only grows.
	return a.Coeff <= b.Coeff
}

// count returns how often each position 0..n−1 occurs in xs.
func count(xs []int, n int) []int {
	c := make([]int, n)
	for _, x := range xs {
		c[x]++
	}
	return c
}
