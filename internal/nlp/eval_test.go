package nlp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/progen"
	"repro/internal/tce"
	"repro/internal/tiling"
)

// evalProblem is one problem of the evaluator tests.
type evalProblem struct {
	name string
	prog *loops.Program
	cfg  machine.Config
}

// evalProblems returns the paper's four-index problems at both sizes,
// the 10-loop triples term, and 16 random programs.
func evalProblems(t testing.TB) []evalProblem {
	t.Helper()
	parsed, err := tce.Parse(tce.CCTriplesSpec(140, 120))
	if err != nil {
		t.Fatal(err)
	}
	triples, err := parsed.Lower("cc-triples")
	if err != nil {
		t.Fatal(err)
	}
	out := []evalProblem{
		{"four-index 140x120", loops.FourIndexAbstract(140, 120), machine.OSCItanium2()},
		{"four-index 190x180", loops.FourIndexAbstract(190, 180), machine.OSCItanium2()},
		{"cc-triples 140x120", loops.FuseGreedy(triples), machine.OSCItanium2()},
	}
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := progen.Generate(rng, progen.Options{Fuse: seed%2 == 0, MultiTerm: seed%3 == 0})
		out = append(out, evalProblem{fmt.Sprintf("progen %d", seed), prog, machine.Small(1 << 10)})
	}
	return out
}

func (ep evalProblem) build(t testing.TB) *Problem {
	t.Helper()
	tree, err := tiling.Tile(ep.prog)
	if err != nil {
		t.Fatalf("%s: %v", ep.name, err)
	}
	m, err := placement.Enumerate(tree, ep.cfg, placement.Options{})
	if err != nil {
		t.Fatalf("%s: %v", ep.name, err)
	}
	return Build(m)
}

// TestEvaluatorMatchesObjectiveBits walks random trajectories of the
// solver's move kinds — single-variable moves, group reassignments,
// restores to the previous point and full random jumps — and checks at
// every step that the incremental evaluator returns Objective and
// Violations to the bit.
func TestEvaluatorMatchesObjectiveBits(t *testing.T) {
	steps := 1500
	if testing.Short() {
		steps = 300
	}
	for _, ep := range evalProblems(t) {
		p := ep.build(t)
		rng := rand.New(rand.NewSource(int64(len(ep.name))))
		ev := p.NewEvaluator()
		nt := len(p.TileVars)
		jump := func(x []int64) {
			for i := range x {
				lo, hi := p.Bounds(i)
				x[i] = lo + rng.Int63n(hi-lo+1)
			}
		}
		x := make([]int64, p.Dim())
		jump(x)
		prev := append([]int64(nil), x...)
		for step := 0; step < steps; step++ {
			before := append([]int64(nil), x...)
			switch r := rng.Intn(10); {
			case r < 5: // one variable: a tile size or a λ bit
				i := rng.Intn(p.Dim())
				lo, hi := p.Bounds(i)
				x[i] = lo + rng.Int63n(hi-lo+1)
			case r < 7 && len(p.Choices) > 0: // reassign one choice
				ch := p.Choices[rng.Intn(len(p.Choices))]
				code := rng.Intn(1 << ch.Bits) // may exceed M−1: clamps
				for b := 0; b < ch.Bits; b++ {
					x[nt+ch.BitOffset+b] = int64(code >> b & 1)
				}
			case r < 9: // restore the previous point
				copy(x, prev)
			default:
				jump(x)
			}
			prev = before
			f, g := ev.Eval(x)
			checkEval(t, fmt.Sprintf("%s step %d", ep.name, step), p, x, f, g)
		}
	}
}

// TestObjectiveViolationsAllocs pins the one-shot evaluations at zero
// allocations for Objective and MemoryUsage, one (the result) for
// Violations, and zero per incremental Eval.
func TestObjectiveViolationsAllocs(t *testing.T) {
	ep := evalProblem{"four-index 190x180", loops.FourIndexAbstract(190, 180), machine.OSCItanium2()}
	p := ep.build(t)
	x := p.Encode(map[string]int64{"a": 40, "b": 30}, nil)
	ev := p.NewEvaluator()
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Objective", 0, func() { p.Objective(x) }},
		{"MemoryUsage", 0, func() { p.MemoryUsage(x) }},
		{"Violations", 1, func() { p.Violations(x) }},
		{"Eval", 0, func() { x[0] = x[0]%p.Ranges[0] + 1; ev.Eval(x) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.name, got, c.want)
		}
	}
}

// checkEval fails t unless the incremental result f, g equals Objective
// and Violations at x to the bit.
func checkEval(t *testing.T, what string, p *Problem, x []int64, f float64, g []float64) {
	t.Helper()
	wantF, wantG := p.Objective(x), p.Violations(x)
	if math.Float64bits(f) != math.Float64bits(wantF) {
		t.Fatalf("%s: f = %v, Objective = %v (x = %v)", what, f, wantF, x)
	}
	if len(g) != len(wantG) {
		t.Fatalf("%s: %d violations, want %d", what, len(g), len(wantG))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(wantG[i]) {
			t.Fatalf("%s: g[%d] = %v, Violations = %v (x = %v)", what, i, g[i], wantG[i], x)
		}
	}
}

// TestEvaluatorSkipPathsMatchObjectiveBits drives the evaluator through
// the moves after which it decodes, recomputes or re-sums little or
// nothing: the same point twice, λ bits whose code clamps to the last
// candidate, a tile move within one trip count, preferring a tile that
// no selected candidate's term multiplies by directly, and a flip of a
// λ bit above a choice's lowest set bit. Single-variable moves and jumps
// keep the trajectory moving. Every result must equal Objective and
// Violations to the bit.
func TestEvaluatorSkipPathsMatchObjectiveBits(t *testing.T) {
	steps := 1500
	if testing.Short() {
		steps = 300
	}
	untouched := 0 // tile moves that left every selected term's value as is
	for _, ep := range evalProblems(t) {
		p := ep.build(t)
		rng := rand.New(rand.NewSource(int64(len(ep.name))))
		ev := p.NewEvaluator()
		nt := len(p.TileVars)
		x := make([]int64, p.Dim())
		jump := func() {
			for i := range x {
				lo, hi := p.Bounds(i)
				x[i] = lo + rng.Int63n(hi-lo+1)
			}
		}
		jump()
		for step := 0; step < steps; step++ {
			what := fmt.Sprintf("%s step %d", ep.name, step)
			switch r := rng.Intn(12); {
			case r < 2: // the same point again
				f, g := ev.Eval(x)
				checkEval(t, what+" (first of two)", p, x, f, g)
			case r < 4 && len(p.Choices) > 0: // a code that clamps
				ch := p.Choices[rng.Intn(len(p.Choices))]
				if bits := x[nt+ch.BitOffset:][:ch.Bits]; 1<<ch.Bits > ch.M {
					code := ch.M + rng.Intn(1<<ch.Bits-ch.M)
					for b := range bits {
						bits[b] = int64(code >> b & 1)
					}
				}
			case r < 6 && nt > 0: // a tile move within one trip count
				i := rng.Intn(nt)
				sel := p.Selected(x)
				for j := 0; j < nt; j++ {
					if !multipliesBy(p, sel, (i+j)%nt) {
						i = (i + j) % nt
						break
					}
				}
				n, k := p.Ranges[i], (p.Ranges[i]+x[i]-1)/x[i]
				lo, hi := (n+k-1)/k, n
				if k > 1 {
					hi = (n+k-2)/(k-1) - 1
				}
				if !multipliesBy(p, sel, i) && hi > lo {
					untouched++
				}
				x[i] = lo + rng.Int63n(hi-lo+1)
			case r < 8 && len(p.Choices) > 0: // one λ bit above the lowest set one
				ch := p.Choices[rng.Intn(len(p.Choices))]
				bits := x[nt+ch.BitOffset:][:ch.Bits]
				first := 0
				for first < len(bits) && bits[first] == 0 {
					first++
				}
				if first+1 < len(bits) {
					b := first + 1 + rng.Intn(len(bits)-first-1)
					bits[b] ^= 1
				}
			case r < 11: // one variable: a tile size or a λ bit
				i := rng.Intn(p.Dim())
				lo, hi := p.Bounds(i)
				x[i] = lo + rng.Int63n(hi-lo+1)
			default:
				jump()
			}
			f, g := ev.Eval(x)
			checkEval(t, what, p, x, f, g)
		}
	}
	if untouched == 0 {
		t.Fatal("no tile move left every selected term unchanged; the test is vacuous")
	}
}

// multipliesBy reports whether a term of a candidate selected by sel
// multiplies by tile variable i directly, not only through its trip
// count.
func multipliesBy(p *Problem, sel []int, i int) bool {
	for ci, k := range sel {
		for _, tm := range p.cands[ci][k].terms {
			for _, j := range tm.idx[:tm.nTiles] {
				if j == i {
					return true
				}
			}
		}
	}
	return false
}

// BenchmarkEval times one incremental Eval after each kind of solver
// move on the three paper problems: a tile size, a λ bit, a whole
// choice's code, or nothing (the same point again). Each call moves one
// step from the previous call's point, cycling over the variables or
// choices from a fixed start.
func BenchmarkEval(b *testing.B) {
	for _, ep := range evalProblems(b)[:3] {
		p := ep.build(b)
		nt := len(p.TileVars)
		tiles, sel := map[string]int64{}, map[string]int{}
		for i, v := range p.TileVars {
			tiles[v] = max(1, p.Ranges[i]/5)
		}
		for ci, ch := range p.Choices {
			sel[ch.Name] = ci % ch.M
		}
		x0 := p.Encode(tiles, sel)
		// points returns x0, x0 after move 0, x0, x0 after move 1, …
		points := func(moves int, move func(x []int64, m int)) [][]int64 {
			var out [][]int64
			for m := 0; m < moves; m++ {
				x := append([]int64(nil), x0...)
				move(x, m)
				out = append(out, x0, x)
			}
			return out
		}
		kinds := []struct {
			name string
			pts  [][]int64
		}{
			{"tile", points(nt, func(x []int64, i int) {
				if x[i] *= 2; x[i] > p.Ranges[i] {
					x[i] = max(1, p.Ranges[i]/2)
				}
			})},
			{"bit", points(p.NumLambda, func(x []int64, j int) { x[nt+j] ^= 1 })},
			{"group", points(len(p.Choices), func(x []int64, ci int) {
				ch := p.Choices[ci]
				code := (ci%ch.M + 1) % ch.M
				for b := 0; b < ch.Bits; b++ {
					x[nt+ch.BitOffset+b] = int64(code >> b & 1)
				}
			})},
			{"repeat", [][]int64{x0}},
		}
		for _, k := range kinds {
			b.Run(strings.ReplaceAll(ep.name, " ", "-")+"/"+k.name, func(b *testing.B) {
				ev := p.NewEvaluator()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ev.Eval(k.pts[i%len(k.pts)])
				}
			})
		}
	}
}
