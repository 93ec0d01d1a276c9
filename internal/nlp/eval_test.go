package nlp

import (
	"fmt"
	"math"
	"math/rand"
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
func evalProblems(t *testing.T) []evalProblem {
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

func (ep evalProblem) build(t *testing.T, enc Encoding) *Problem {
	t.Helper()
	tree, err := tiling.Tile(ep.prog)
	if err != nil {
		t.Fatalf("%s: %v", ep.name, err)
	}
	m, err := placement.Enumerate(tree, ep.cfg, placement.Options{})
	if err != nil {
		t.Fatalf("%s: %v", ep.name, err)
	}
	return BuildEncoded(m, enc)
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
		for _, enc := range []Encoding{BinaryEncoding, OneHotEncoding} {
			p := ep.build(t, enc)
			rng := rand.New(rand.NewSource(int64(len(ep.name)) + int64(enc)))
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
					if enc == OneHotEncoding {
						code = rng.Intn(ch.M)
					}
					for b := 0; b < ch.Bits; b++ {
						set := code&(1<<b) != 0
						if enc == OneHotEncoding {
							set = b == code
						}
						x[nt+ch.BitOffset+b] = 0
						if set {
							x[nt+ch.BitOffset+b] = 1
						}
					}
				case r < 9: // restore the previous point
					copy(x, prev)
				default:
					jump(x)
				}
				prev = before
				f, g := ev.Eval(x)
				wantF, wantG := p.Objective(x), p.Violations(x)
				if math.Float64bits(f) != math.Float64bits(wantF) {
					t.Fatalf("%s enc %d step %d: f = %v, Objective = %v (x = %v)", ep.name, enc, step, f, wantF, x)
				}
				if len(g) != len(wantG) {
					t.Fatalf("%s enc %d: %d violations, want %d", ep.name, enc, len(g), len(wantG))
				}
				for i := range g {
					if math.Float64bits(g[i]) != math.Float64bits(wantG[i]) {
						t.Fatalf("%s enc %d step %d: g[%d] = %v, Violations = %v (x = %v)", ep.name, enc, step, i, g[i], wantG[i], x)
					}
				}
			}
		}
	}
}

// TestObjectiveViolationsAllocs pins the one-shot evaluations at zero
// allocations for Objective and MemoryUsage, one (the result) for
// Violations, and zero per incremental Eval.
func TestObjectiveViolationsAllocs(t *testing.T) {
	ep := evalProblem{"four-index 190x180", loops.FourIndexAbstract(190, 180), machine.OSCItanium2()}
	p := ep.build(t, BinaryEncoding)
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
