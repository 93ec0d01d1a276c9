package dcs_test

// Trajectory goldens: digests of whole solves, recorded once and compared
// on every run, so a change that moves any point, objective bit, eval
// count or event fails here even when every in-tree path moves with it.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/dcs"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/nlp"
	"repro/internal/placement"
	"repro/internal/tce"
	"repro/internal/tiling"
)

// paperProblem builds one of the three paper programs (four-index at
// both sizes, the fused CC-triples term) at a memory limit.
func paperProblem(tb testing.TB, name string, memLimit int64) *nlp.Problem {
	tb.Helper()
	var prog *loops.Program
	switch name {
	case "four-index 140x120":
		prog = loops.FourIndexAbstract(140, 120)
	case "four-index 190x180":
		prog = loops.FourIndexAbstract(190, 180)
	case "cc-triples 140x120":
		parsed, err := tce.Parse(tce.CCTriplesSpec(140, 120))
		if err != nil {
			tb.Fatal(err)
		}
		lowered, err := parsed.Lower("cc-triples")
		if err != nil {
			tb.Fatal(err)
		}
		prog = loops.FuseGreedy(lowered)
	default:
		tb.Fatalf("unknown paper program %q", name)
	}
	tree, err := tiling.Tile(prog)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = memLimit
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return nlp.Build(m)
}

var paperPrograms = []string{"four-index 140x120", "four-index 190x180", "cc-triples 140x120"}

// digest hashes everything a solve makes observable: the result (point,
// objective bits, feasibility, evals, restarts, lanes and winner) and
// each lane's event stream, lanes in index order.
func (tr solveTrace) digest() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	r := tr.res
	put(uint64(len(r.X)))
	for _, v := range r.X {
		put(uint64(v))
	}
	put(math.Float64bits(r.Objective), b(r.Feasible), uint64(r.Evals), uint64(r.Restarts),
		uint64(r.Lanes), uint64(r.WinnerLane), uint64(r.WinnerSeed), uint64(r.WinnerStrategy))
	lanes := byLane(tr.events)
	ids := make([]int, 0, len(lanes))
	for id := range lanes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		put(uint64(id), uint64(len(lanes[id])))
		for _, e := range lanes[id] {
			h.Write([]byte(e.Kind))
			put(uint64(e.Restart), uint64(e.Evals), math.Float64bits(e.Best), b(e.Feasible),
				math.Float64bits(e.MaxViolation), math.Float64bits(e.MuNorm))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// trajectoryGolden holds the digest of every TestSolverTrajectoryGolden
// case, recorded before the evaluator re-folded from the first changed
// choice and before DLM re-used the scores of its single-bit flips.
var trajectoryGolden = map[string]string{
	"four-index 140x120/DLM":           "55c4fdb840446918",
	"four-index 140x120/CSA":           "16ccb6f8c92cf40c",
	"four-index 140x120/random":        "de6b79ebc1e47114",
	"four-index 140x120/portfolio4":    "446ae896cf99ea0b",
	"four-index 140x120/warm+patience": "de157c4d717113aa",
	"four-index 190x180/DLM":           "0243cdee3b97310a",
	"four-index 190x180/CSA":           "0625975b4d2527fa",
	"four-index 190x180/random":        "5128bebcd42368de",
	"four-index 190x180/portfolio4":    "07c7abb0631313a8",
	"four-index 190x180/warm+patience": "7b9427ef7e679c34",
	"cc-triples 140x120/DLM":           "ff899862268fefed",
	"cc-triples 140x120/CSA":           "7221046f45090cb9",
	"cc-triples 140x120/random":        "7ea4d8e03bf4e20e",
	"cc-triples 140x120/portfolio4":    "de2093e0d87034c3",
	"cc-triples 140x120/warm+patience": "3e89b64409f19ee4",
}

// TestSolverTrajectoryGolden solves the three paper programs with every
// strategy, the portfolio and a warm-started patient re-solve, and
// compares each solve's digest with the recorded one.
func TestSolverTrajectoryGolden(t *testing.T) {
	for _, name := range paperPrograms {
		p := paperProblem(t, name, 2*machine.GB)
		cold := traceSolve(t, p, dcs.WithSeed(5), dcs.WithBudget(20000))
		tight := paperProblem(t, name, machine.GB)
		warm, _ := tight.EncodeAssignment(p.Decode(cold.res.X))
		cases := []struct {
			name string
			p    *nlp.Problem
			opts []dcs.RunOption
		}{
			{"DLM", p, []dcs.RunOption{dcs.WithStrategy(dcs.DLM), dcs.WithBudget(40000)}},
			{"CSA", p, []dcs.RunOption{dcs.WithStrategy(dcs.CSA), dcs.WithBudget(40000)}},
			{"random", p, []dcs.RunOption{dcs.WithStrategy(dcs.RandomSearch), dcs.WithBudget(10000)}},
			{"portfolio4", p, []dcs.RunOption{dcs.WithPortfolio(4), dcs.WithBudget(40000)}},
			{"warm+patience", tight, []dcs.RunOption{dcs.WithStart(warm), dcs.WithPatience(3000), dcs.WithBudget(40000)}},
		}
		for _, c := range cases {
			key := name + "/" + c.name
			opts := append([]dcs.RunOption{dcs.WithSeed(3)}, c.opts...)
			if got := traceSolve(t, c.p, opts...).digest(); got != trajectoryGolden[key] {
				t.Errorf("%s: digest %s, recorded %s", key, got, trajectoryGolden[key])
			}
		}
	}
}

// mixedGroups is a grouped problem whose λ groups take every path of the
// DLM group scan: x[0], x[1] are tiles in 1..64; x[2:4] a binary group
// of 3 codes whose high bit ranges over 0..2; x[4:6] a binary group of 4
// codes whose bits both range over 0..2, so a bit's single-variable
// moves are not flips; x[6:8], when plainBits is set, a binary 0/1 group
// of 3 codes. The objective and the second constraint read the raw bit
// values, so a group code written over a bit holding 2 is a different
// point from any single-variable move. It counts its Objective calls.
type mixedGroups struct {
	plainBits bool
	calls     *int
}

func (m mixedGroups) Dim() int {
	if m.plainBits {
		return 8
	}
	return 6
}

func (m mixedGroups) Bounds(i int) (int64, int64) {
	switch {
	case i < 2:
		return 1, 64
	case i >= 3 && i <= 5:
		return 0, 2
	}
	return 0, 1
}

func (m mixedGroups) Objective(x []int64) float64 {
	*m.calls++
	t0, t1 := float64(x[0]), float64(x[1])
	f := (t0-20)*(t0-20)/10 + (t1-7)*(t1-7) + 300/(t0*t1)
	f += 5*float64(x[2]) + 2*float64(x[3])
	f += 11 - 4*float64(x[4]) + 3*float64(x[5])*float64(x[4]) + 0.5*float64(x[5])*t1
	if m.plainBits {
		f += []float64{6, 1, 4, 0.5}[x[6]+2*x[7]] * (1 + t0/64)
	}
	return f
}

func (m mixedGroups) Violations(x []int64) []float64 {
	g := []float64{0, 0}
	if p := x[0] * x[1]; p > 300 {
		g[0] = float64(p-300) / 300
	}
	g[1] = math.Abs(float64(x[2] + x[3] - 1))
	return g
}

func (m mixedGroups) Groups() []dcs.Group {
	gs := []dcs.Group{{Offset: 2, Len: 2, Codes: 3}, {Offset: 4, Len: 2, Codes: 4}}
	if m.plainBits {
		gs = append(gs, dcs.Group{Offset: 6, Len: 2, Codes: 3})
	}
	return gs
}

// mixedGroupsGolden holds the digests of TestDLMGroupScanTrajectory's
// solves, recorded with DLM's flip re-use switched off, so that DLM
// evaluated every point it scored.
var mixedGroupsGolden = map[string]string{
	"plainBits=false/seed 1": "277b44f1a9fd4ec9",
	"plainBits=false/seed 2": "d7b5fbd9fbbe8dff",
	"plainBits=false/seed 3": "f545fc35bf7207e1",
	"plainBits=true/seed 1":  "b4646b627791fd43",
	"plainBits=true/seed 2":  "1553445197f8fddd",
	"plainBits=true/seed 3":  "282271c17dd9f5d5",
}

// TestDLMGroupScanTrajectory solves mixedGroups with DLM and compares the
// solves with the recorded digests. Without the 0/1 group no group code
// is a single-bit flip of the pass, so every scored point is evaluated;
// with it, some group codes re-use their flip's score and the problem
// sees fewer Objective calls than the solve charged.
func TestDLMGroupScanTrajectory(t *testing.T) {
	for _, plainBits := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			calls := 0
			p := mixedGroups{plainBits: plainBits, calls: &calls}
			tr := traceSolve(t, p, dcs.WithSeed(seed), dcs.WithBudget(20000))
			key := fmt.Sprintf("plainBits=%v/seed %d", plainBits, seed)
			if got := tr.digest(); got != mixedGroupsGolden[key] {
				t.Errorf("%s: digest %s, recorded %s", key, got, mixedGroupsGolden[key])
			}
			if reused := calls < tr.res.Evals; reused != plainBits || calls > tr.res.Evals {
				t.Errorf("%s: %d evals charged, %d Objective calls", key, tr.res.Evals, calls)
			}
		}
	}
}
