package dcs

import (
	"context"
	"math"
	"testing"
)

// quadProblem: min (x-7)² + (y-3)² subject to x+y ≤ 8, x,y ∈ [0,10].
// Optimum is x=6, y=2 with f=2.
type quadProblem struct{}

func (quadProblem) Dim() int                  { return 2 }
func (quadProblem) Bounds(int) (int64, int64) { return 0, 10 }
func (quadProblem) Objective(x []int64) float64 {
	dx, dy := float64(x[0])-7, float64(x[1])-3
	return dx*dx + dy*dy
}
func (quadProblem) Violations(x []int64) []float64 {
	if s := x[0] + x[1]; s > 8 {
		return []float64{float64(s-8) / 8}
	}
	return []float64{0}
}

func TestDLMSolvesQuadratic(t *testing.T) {
	res, err := Run(context.Background(), quadProblem{}, WithSeed(1), WithBudget(20000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("no feasible point found")
	}
	if res.Objective != 2 {
		t.Fatalf("objective = %g at %v, want 2 at (6,2)", res.Objective, res.X)
	}
	if res.X[0]+res.X[1] > 8 {
		t.Fatalf("solution %v violates constraint", res.X)
	}
}

func TestCSASolvesQuadratic(t *testing.T) {
	res, err := Run(context.Background(), quadProblem{}, WithStrategy(CSA), WithSeed(2), WithBudget(50000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("CSA found no feasible point")
	}
	if res.Objective > 4 {
		t.Fatalf("CSA objective = %g, want near 2", res.Objective)
	}
}

func TestRandomSearchFindsFeasible(t *testing.T) {
	res, err := Run(context.Background(), quadProblem{}, WithStrategy(RandomSearch), WithSeed(3), WithBudget(5000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("random search found no feasible point on an easy problem")
	}
}

// knapsack: 6 binary items; maximize value (minimize -value) with weight ≤ 10.
type knapsack struct{}

var knapValues = []float64{6, 5, 4, 3, 2, 1}
var knapWeights = []int64{5, 4, 3, 2, 1, 1}

func (knapsack) Dim() int                  { return 6 }
func (knapsack) Bounds(int) (int64, int64) { return 0, 1 }
func (knapsack) Objective(x []int64) float64 {
	v := 0.0
	for i, xi := range x {
		if xi != 0 {
			v += knapValues[i]
		}
	}
	return -v
}
func (knapsack) Violations(x []int64) []float64 {
	var w int64
	for i, xi := range x {
		if xi != 0 {
			w += knapWeights[i]
		}
	}
	if w > 10 {
		return []float64{float64(w-10) / 10}
	}
	return []float64{0}
}

func TestDLMSolvesKnapsack(t *testing.T) {
	// Optimal: items with weight 5+4+1 (values 6+5+2=13) or 5+3+2 (6+4+3=13)
	// → best value 13... check by brute force below.
	bestVal := 0.0
	for mask := 0; mask < 64; mask++ {
		var w int64
		v := 0.0
		for i := 0; i < 6; i++ {
			if mask&(1<<i) != 0 {
				w += knapWeights[i]
				v += knapValues[i]
			}
		}
		if w <= 10 && v > bestVal {
			bestVal = v
		}
	}
	res, err := Run(context.Background(), knapsack{}, WithSeed(4), WithBudget(20000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("no feasible knapsack solution")
	}
	if -res.Objective != bestVal {
		t.Fatalf("knapsack value = %g, want optimal %g", -res.Objective, bestVal)
	}
}

// ceilProblem mimics the tile-cost landscape: min ceil(1000/t)·t·c + (1000/t)·s
// over t ∈ [1,1000] with a buffer constraint t ≤ 100. The objective rewards
// large tiles (fewer trips) while the constraint caps them.
type ceilProblem struct{}

func (ceilProblem) Dim() int                  { return 1 }
func (ceilProblem) Bounds(int) (int64, int64) { return 1, 1000 }
func (ceilProblem) Objective(x []int64) float64 {
	t := x[0]
	trips := float64((1000 + t - 1) / t)
	return trips*float64(t)*0.001 + trips*0.5
}
func (ceilProblem) Violations(x []int64) []float64 {
	if x[0] > 100 {
		return []float64{float64(x[0]-100) / 100}
	}
	return []float64{0}
}

func TestDLMHandlesCeilLandscape(t *testing.T) {
	res, err := Run(context.Background(), ceilProblem{}, WithSeed(5), WithBudget(20000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	// Optimum is t = 100 (10 trips): f = 1000·0.001 + 10·0.5 = 6.
	if math.Abs(res.Objective-6) > 1e-9 {
		t.Fatalf("objective = %g at t=%d, want 6 at t=100", res.Objective, res.X[0])
	}
}

// infeasibleProblem has no feasible point.
type infeasibleProblem struct{}

func (infeasibleProblem) Dim() int                    { return 1 }
func (infeasibleProblem) Bounds(int) (int64, int64)   { return 0, 10 }
func (infeasibleProblem) Objective(x []int64) float64 { return float64(x[0]) }
func (infeasibleProblem) Violations(x []int64) []float64 {
	return []float64{1 + float64(x[0])} // always violated, smaller at x=0
}

func TestInfeasibleReportsLeastBad(t *testing.T) {
	res, err := Run(context.Background(), infeasibleProblem{}, WithSeed(6), WithBudget(2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("problem is infeasible but solver claims success")
	}
	if res.X == nil {
		t.Fatal("least-infeasible point missing")
	}
	if res.X[0] != 0 {
		t.Fatalf("least-bad x = %v, want [0]", res.X)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	for _, strat := range []Strategy{DLM, CSA, RandomSearch} {
		a, err := Run(context.Background(), quadProblem{}, WithStrategy(strat), WithSeed(7), WithBudget(5000))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(context.Background(), quadProblem{}, WithStrategy(strat), WithSeed(7), WithBudget(5000))
		if err != nil {
			t.Fatal(err)
		}
		if a.Objective != b.Objective || a.X[0] != b.X[0] || a.X[1] != b.X[1] {
			t.Fatalf("%v: non-deterministic results: %+v vs %+v", strat, a, b)
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	res, err := Run(context.Background(), quadProblem{}, WithSeed(8), WithBudget(100))
	if err != nil {
		t.Fatal(err)
	}
	// The budget check happens between move evaluations; allow the inner
	// loop to overshoot by at most one neighbourhood scan.
	if res.Evals > 200 {
		t.Fatalf("evals = %d greatly exceeds budget 100", res.Evals)
	}
}

func TestSolutionWithinBounds(t *testing.T) {
	res, err := Run(context.Background(), ceilProblem{}, WithStrategy(CSA), WithSeed(9), WithBudget(3000))
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] < 1 || res.X[0] > 1000 {
		t.Fatalf("solution %v escapes bounds", res.X)
	}
}

func TestStartPointUsed(t *testing.T) {
	// Seeding the optimum must keep it.
	res, err := Run(context.Background(), quadProblem{}, WithSeed(10), WithBudget(5000), WithStart([]int64{6, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 2 {
		t.Fatalf("objective = %g, want 2", res.Objective)
	}
}

func TestEmptyProblemErrors(t *testing.T) {
	if _, err := Run(context.Background(), emptyProblem{}); err == nil {
		t.Fatal("empty problem must error")
	}
}

type emptyProblem struct{}

func (emptyProblem) Dim() int                     { return 0 }
func (emptyProblem) Bounds(int) (int64, int64)    { return 0, 0 }
func (emptyProblem) Objective([]int64) float64    { return 0 }
func (emptyProblem) Violations([]int64) []float64 { return nil }

// groupedProblem: choose one of 5 options (a binary code in x[1:4],
// codes ≥ 4 selecting option 4; x[4:6] are bits the problem ignores)
// plus an integer t ∈ [1,100]; cost = optionCost[k] · ceil(100/t);
// constraint: t ≤ caps[k]. The optimum couples the categorical and
// integer variables, exercising the solver's group moves.
type groupedProblem struct{}

var gpCosts = []float64{5, 3, 1, 4, 2}
var gpCaps = []int64{100, 40, 10, 80, 25}

func (g groupedProblem) Dim() int { return 6 } // t + 5 bits
func (g groupedProblem) Bounds(i int) (int64, int64) {
	if i == 0 {
		return 1, 100
	}
	return 0, 1
}
func (g groupedProblem) selected(x []int64) int {
	code := 0
	for b := 0; b < 3; b++ {
		if x[1+b] != 0 {
			code |= 1 << b
		}
	}
	if code > 4 {
		code = 4
	}
	return code
}
func (g groupedProblem) Objective(x []int64) float64 {
	k := g.selected(x)
	trips := float64((100 + x[0] - 1) / x[0])
	return gpCosts[k] * trips
}
func (g groupedProblem) Violations(x []int64) []float64 {
	k := g.selected(x)
	if x[0] > gpCaps[k] {
		return []float64{float64(x[0]-gpCaps[k]) / float64(gpCaps[k])}
	}
	return []float64{0}
}
func (g groupedProblem) Groups() []Group {
	return []Group{{Offset: 1, Len: 3, Codes: 5}}
}

func TestGroupMovesFindCoupledOptimum(t *testing.T) {
	// Brute-force optimum: min over k of cost[k]·ceil(100/caps[k]):
	// k=0: 5·1=5, k=1: 3·3=9, k=2: 1·10=10, k=3: 4·2=8, k=4: 2·4=8 → 5.
	res, err := Run(context.Background(), groupedProblem{}, WithSeed(11), WithBudget(30000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	if res.Objective != 5 {
		t.Fatalf("objective %g at %v, want 5", res.Objective, res.X)
	}
}

func TestCSAGroupMoves(t *testing.T) {
	res, err := Run(context.Background(), groupedProblem{}, WithStrategy(CSA), WithSeed(12), WithBudget(60000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Objective > 9 {
		t.Fatalf("CSA on grouped problem: %+v", res)
	}
}

func TestGroupCodeRoundTrip(t *testing.T) {
	x := make([]int64, 6)
	bin := Group{Offset: 1, Len: 3, Codes: 5}
	for code := int64(0); code < 5; code++ {
		setGroupCode(bin, x, code)
		if got := groupCode(bin, x); got != code {
			t.Fatalf("binary code %d round-tripped to %d", code, got)
		}
	}
}

func TestUnknownStrategyErrors(t *testing.T) {
	if _, err := Run(context.Background(), quadProblem{}, WithStrategy(Strategy(99))); err == nil {
		t.Fatal("unknown strategy must error")
	}
	if Strategy(99).String() == "" {
		t.Fatal("Strategy.String must render unknown values")
	}
	if DLM.String() != "DLM" || CSA.String() != "CSA" || RandomSearch.String() != "random" {
		t.Fatal("strategy names wrong")
	}
}
