package placement

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomTerm draws a term over a small fixed universe of quickVars tile
// variables.
type randomTerm Term

const quickVars = 4

func (randomTerm) Generate(r *rand.Rand, _ int) reflect.Value {
	t := Term{Coeff: float64(1 + r.Intn(16))}
	for x := range quickVars {
		for r.Intn(3) == 0 {
			switch r.Intn(3) {
			case 0:
				t.Fulls = append(t.Fulls, x)
			case 1:
				t.Tiles = append(t.Tiles, x)
			default:
				t.Trips = append(t.Trips, x)
			}
		}
	}
	return reflect.ValueOf(randomTerm(t))
}

func quickEnv(seed int64) (ranges, tiles []int64) {
	r := rand.New(rand.NewSource(seed))
	ranges, tiles = make([]int64, quickVars), make([]int64, quickVars)
	for x := range quickVars {
		ranges[x] = 2 + r.Int63n(60)
		tiles[x] = 1 + r.Int63n(ranges[x])
	}
	return ranges, tiles
}

// Property: Mul evaluates as the product of the factors, for any tile
// assignment.
func TestQuickTermMulHomomorphic(t *testing.T) {
	f := func(a, b randomTerm, seed int64) bool {
		ranges, tiles := quickEnv(seed)
		ta, tb := Term(a), Term(b)
		prod := ta.Mul(tb).Eval(tiles, ranges)
		want := ta.Eval(tiles, ranges) * tb.Eval(tiles, ranges)
		return math.Abs(prod-want) <= 1e-9*math.Abs(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mul is commutative under evaluation.
func TestQuickTermMulCommutative(t *testing.T) {
	f := func(a, b randomTerm, seed int64) bool {
		ranges, tiles := quickEnv(seed)
		ta, tb := Term(a), Term(b)
		return ta.Mul(tb).Eval(tiles, ranges) == tb.Mul(ta).Eval(tiles, ranges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property (soundness of dominance pruning): whenever DividesLE(a, b)
// holds, a evaluates to at most b for EVERY tile assignment.
func TestQuickDividesLESound(t *testing.T) {
	f := func(a, b randomTerm, seed1, seed2, seed3 int64) bool {
		ta, tb := Term(a), Term(b)
		if !DividesLE(ta, tb) {
			return true // nothing claimed
		}
		for _, seed := range []int64{seed1, seed2, seed3} {
			ranges, tiles := quickEnv(seed)
			if ta.Eval(tiles, ranges) > tb.Eval(tiles, ranges)*(1+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: EvalTileOne equals Eval with every tile forced to 1.
func TestQuickEvalTileOneConsistent(t *testing.T) {
	f := func(a randomTerm, seed int64) bool {
		ranges, _ := quickEnv(seed)
		ones := []int64{1, 1, 1, 1}
		ta := Term(a)
		return ta.EvalTileOne(ranges) == ta.Eval(ones, ranges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a term is monotone non-increasing in any tile size along its
// Trips factors and non-decreasing along its Tiles factors... both can
// appear, so check the guaranteed direction: padded size ceil(N/T)·T ≥ N
// — evaluate the canonical padded-size term and compare to N.
func TestQuickPaddedSizeAtLeastExact(t *testing.T) {
	f := func(seed int64) bool {
		ranges, tiles := quickEnv(seed)
		for x := range quickVars {
			padded := Term{Coeff: 1, Tiles: []int{x}, Trips: []int{x}}.Eval(tiles, ranges)
			if padded < float64(ranges[x]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
