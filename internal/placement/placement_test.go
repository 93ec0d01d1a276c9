package placement

import (
	"math"
	"strings"
	"testing"

	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/tiling"
)

func fig4Model(t *testing.T) *Model {
	t.Helper()
	// The Fig. 4 configuration: N_m=N_n=35000, N_i=N_j=40000, 1 GB limit.
	p := loops.TwoIndexFused(35000, 40000)
	tree, err := tiling.Tile(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 1 * machine.GB
	m, err := Enumerate(tree, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func choiceByName(t *testing.T, m *Model, name string) Choice {
	t.Helper()
	for _, ch := range m.Choices {
		if ch.Name == name {
			return ch
		}
	}
	t.Fatalf("no choice named %q in model:\n%s", name, m)
	return Choice{}
}

func TestFig4CandidateCounts(t *testing.T) {
	// The paper's Fig. 4(a) lists exactly two candidate placements for each
	// of A, C1, C2, and B, and the in-memory/disk alternatives for T.
	m := fig4Model(t)
	for _, name := range []string{"A", "C1", "C2", "B"} {
		ch := choiceByName(t, m, name)
		if len(ch.Candidates) != 2 {
			t.Errorf("%s has %d candidates, want 2:\n%s", name, len(ch.Candidates), m)
		}
	}
	ch := choiceByName(t, m, "T")
	if !ch.Candidates[0].InMemory {
		t.Errorf("T's first candidate should be in-memory:\n%s", m)
	}
	if len(ch.Candidates) < 2 {
		t.Errorf("T should also have at least one disk candidate:\n%s", m)
	}
}

func evalTerm(tm Term, tiles map[string]int64, ranges map[string]int64) float64 {
	return tm.Eval(tiles, ranges)
}

func TestFig4CostExpressionsForA(t *testing.T) {
	// Sec. 4.2 derives for input A the two placements with disk costs
	// D1 = (N_n/T_n) × Size_A (leaf) and D2 = Size_A (above nT), and
	// memory costs M1 = T_i×T_j and M2 = T_i×N_j.
	m := fig4Model(t)
	ch := choiceByName(t, m, "A")
	ranges := m.Prog.Ranges
	tiles := map[string]int64{"i": 100, "j": 200, "m": 50, "n": 70}
	sizeA := float64(ranges["i"]*ranges["j"]) * 8

	var leaf, upper *Candidate
	for i := range ch.Candidates {
		c := &ch.Candidates[i]
		if c.Read.Pos.Label == "leaf" {
			leaf = c
		} else {
			upper = c
		}
	}
	if leaf == nil || upper == nil {
		t.Fatalf("A candidates missing leaf/upper: %s", m)
	}

	// Leaf: cost = ceil(Nn/Tn) × padded Size_A; with dividing tiles this is
	// exactly (Nn/Tn) × Size_A.
	got := evalTerm(leaf.Read.Bytes, tiles, ranges)
	want := float64(ranges["n"]/tiles["n"]) * sizeA
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("leaf read cost = %g, want %g", got, want)
	}
	gotMem := evalTerm(leaf.Read.Buf.Bytes, tiles, ranges)
	wantMem := float64(tiles["i"]*tiles["j"]) * 8
	if gotMem != wantMem {
		t.Errorf("leaf buffer = %g, want TiTj = %g", gotMem, wantMem)
	}

	// Upper (above nT): cost = Size_A, buffer = T_i × N_j.
	if upper.Read.Pos.Label != "above nT" {
		t.Errorf("upper placement label = %q, want 'above nT'", upper.Read.Pos.Label)
	}
	got = evalTerm(upper.Read.Bytes, tiles, ranges)
	if math.Abs(got-sizeA)/sizeA > 1e-12 {
		t.Errorf("upper read cost = %g, want Size_A = %g", got, sizeA)
	}
	gotMem = evalTerm(upper.Read.Buf.Bytes, tiles, ranges)
	wantMem = float64(tiles["i"]*ranges["j"]) * 8
	if gotMem != wantMem {
		t.Errorf("upper buffer = %g, want Ti×Nj = %g", gotMem, wantMem)
	}
}

func TestFig4OutputBRequiresRead(t *testing.T) {
	// Fig. 4(a): both write placements for B require a read (the summation
	// loop i is redundant for B and surrounds any legal write position).
	m := fig4Model(t)
	ch := choiceByName(t, m, "B")
	for _, c := range ch.Candidates {
		if !c.RMWRead {
			t.Errorf("B candidate %q does not require a read", c.Label)
		}
		if c.InitZero == nil {
			t.Errorf("B candidate %q has no init pass", c.Label)
		}
	}
}

func TestFig4TInMemoryBufferIsTileSized(t *testing.T) {
	// The fused scalar T re-expands to a T_n×T_i tile buffer (T[jI,nI] in
	// Fig. 4(b)).
	m := fig4Model(t)
	ch := choiceByName(t, m, "T")
	mem := ch.Candidates[0]
	if !mem.InMemory {
		t.Fatal("first T candidate not in-memory")
	}
	tiles := map[string]int64{"i": 100, "j": 200, "m": 50, "n": 70}
	got := evalTerm(mem.MemBuf.Bytes, tiles, m.Prog.Ranges)
	want := float64(tiles["n"]*tiles["i"]) * 8
	if got != want {
		t.Fatalf("T in-memory buffer = %g, want Tn×Ti = %g (dims %s)", got, want, mem.MemBuf)
	}
}

func TestIntermediateDiskCandidatesStayInsideLCA(t *testing.T) {
	m := fig4Model(t)
	ch := choiceByName(t, m, "T")
	for _, c := range ch.Candidates {
		if c.InMemory {
			continue
		}
		if c.Write.Pos.Depth < 2 || c.Read.Pos.Depth < 2 {
			t.Errorf("disk candidate %q escapes the LCA (depths %d/%d)", c.Label, c.Write.Pos.Depth, c.Read.Pos.Depth)
		}
	}
}

func TestFourIndexEnumerates(t *testing.T) {
	p := loops.FourIndexAbstract(140, 120)
	tree, err := tiling.Tile(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Enumerate(tree, machine.OSCItanium2(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 5 inputs + 3 intermediates + 1 output.
	if len(m.Choices) != 9 {
		t.Fatalf("four-index model has %d choices, want 9:\n%s", len(m.Choices), m)
	}
	for _, ch := range m.Choices {
		if len(ch.Candidates) == 0 {
			t.Fatalf("choice %s has no candidates", ch.Name)
		}
	}
	if len(m.TileVars) != 8 {
		t.Fatalf("tile vars = %v, want 8", m.TileVars)
	}
}

func TestFourIndexT1MustGoToDisk(t *testing.T) {
	// T1(a,q,r,s) is unfused: its in-memory buffer spans the full array
	// (~9.9 GB at N=190,V=180), far above the 2 GB limit, so the in-memory
	// candidate must be pruned and only disk candidates remain.
	p := loops.FourIndexAbstract(190, 180)
	tree, err := tiling.Tile(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Enumerate(tree, machine.OSCItanium2(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ch := choiceByName(t, m, "T1")
	for _, c := range ch.Candidates {
		if c.InMemory {
			t.Fatalf("T1 offered in-memory candidate despite exceeding the memory limit")
		}
	}
	if len(ch.Candidates) == 0 {
		t.Fatal("T1 has no disk candidates")
	}
}

func TestFourIndexScalarIntermediatesStayInMemory(t *testing.T) {
	// T2 is fused to a scalar: its buffer is one element per tile point
	// (T_a×T_b×T_r×T_s); in-memory must be offered.
	p := loops.FourIndexAbstract(140, 120)
	tree, _ := tiling.Tile(p)
	m, err := Enumerate(tree, machine.OSCItanium2(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ch := choiceByName(t, m, "T2")
	if !ch.Candidates[0].InMemory {
		t.Fatalf("T2 should offer in-memory first:\n%s", m)
	}
}

func TestEnumerateFailsWhenMemoryTooSmall(t *testing.T) {
	p := loops.TwoIndexFused(100, 100)
	tree, _ := tiling.Tile(p)
	cfg := machine.Small(4) // 4 bytes: not even one element
	if _, err := Enumerate(tree, cfg, Options{}); err == nil {
		t.Fatal("expected error for absurd memory limit")
	}
}

func TestDominancePruningReducesCandidates(t *testing.T) {
	p := loops.FourIndexAbstract(140, 120)
	tree, _ := tiling.Tile(p)
	pruned, err := Enumerate(tree, machine.OSCItanium2(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := Enumerate(tree, machine.OSCItanium2(), Options{DisableDominancePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	np, nu := 0, 0
	for _, ch := range pruned.Choices {
		np += len(ch.Candidates)
	}
	for _, ch := range unpruned.Choices {
		nu += len(ch.Candidates)
	}
	if np > nu {
		t.Fatalf("pruned model has more candidates (%d) than unpruned (%d)", np, nu)
	}
	if nu == np {
		t.Logf("note: dominance pruning removed nothing on this workload (pruned=%d)", np)
	}
}

func TestModelStringMentionsPlacements(t *testing.T) {
	m := fig4Model(t)
	s := m.String()
	for _, want := range []string{"A (input)", "B (output)", "T (intermediate)", "in memory", "read required"} {
		if !strings.Contains(s, want) {
			t.Fatalf("model dump missing %q:\n%s", want, s)
		}
	}
}

func TestTermEvalAndString(t *testing.T) {
	ranges := map[string]int64{"i": 10, "j": 7}
	tiles := map[string]int64{"i": 3, "j": 2}
	tm := Term{Coeff: 8, Fulls: []string{"j"}, Tiles: []string{"i"}, Trips: []string{"i"}}
	// 8 × N_j × T_i × ceil(10/3) = 8×7×3×4 = 672
	if got := tm.Eval(tiles, ranges); got != 672 {
		t.Fatalf("Eval = %g, want 672", got)
	}
	// tile-one: 8 × 7 × 1 × 10 = 560
	if got := tm.EvalTileOne(ranges); got != 560 {
		t.Fatalf("EvalTileOne = %g, want 560", got)
	}
	s := tm.String()
	for _, want := range []string{"8", "Nj", "Ti", "ceil(Ni/Ti)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Term string missing %q: %s", want, s)
		}
	}
}

func TestTermMulAndScale(t *testing.T) {
	a := Term{Coeff: 2, Tiles: []string{"i"}}
	b := Term{Coeff: 3, Trips: []string{"j"}}
	c := a.Mul(b)
	if c.Coeff != 6 || len(c.Tiles) != 1 || len(c.Trips) != 1 {
		t.Fatalf("Mul wrong: %+v", c)
	}
	if got := a.Scale(5).Coeff; got != 10 {
		t.Fatalf("Scale = %g", got)
	}
	if !Zero().IsZero() || One().IsZero() {
		t.Fatal("Zero/One identities wrong")
	}
}

func TestDividesLE(t *testing.T) {
	// T_i ≤ N_i.
	a := Term{Coeff: 8, Tiles: []string{"i"}}
	b := Term{Coeff: 8, Fulls: []string{"i"}}
	if !DividesLE(a, b) {
		t.Error("T_i should be ≤ N_i")
	}
	if DividesLE(b, a) {
		t.Error("N_i is not guaranteed ≤ T_i")
	}
	// ceil(N_i/T_i) ≤ N_i.
	c := Term{Coeff: 8, Trips: []string{"i"}}
	if !DividesLE(c, b) {
		t.Error("ceil(N/T) should be ≤ N")
	}
	// Identical terms are mutually ≤.
	if !DividesLE(a, a) {
		t.Error("a ≤ a must hold")
	}
	// Coefficients matter.
	big := Term{Coeff: 9, Tiles: []string{"i"}}
	if DividesLE(big, a) {
		t.Error("9Ti is not ≤ 8Ti")
	}
	// Extra factor on a's side → not comparable.
	d := Term{Coeff: 8, Tiles: []string{"i", "j"}}
	if DividesLE(d, a) {
		t.Error("TiTj vs Ti must not be comparable")
	}
}

func TestBufferSpecString(t *testing.T) {
	b := BufferSpec{Dims: []BufDim{{"i", ExtTile}, {"j", ExtFull}, {"k", ExtOne}}}
	if got := b.String(); got != "[iI,j,1]" {
		t.Fatalf("BufferSpec string = %q", got)
	}
}

func TestCandidateTermAccessors(t *testing.T) {
	m := fig4Model(t)
	b := choiceByName(t, m, "B")
	for _, c := range b.Candidates {
		if len(c.WriteBytes()) != 2 { // write + init pass
			t.Fatalf("B candidate %q WriteBytes = %d terms, want 2", c.Label, len(c.WriteBytes()))
		}
		if len(c.ReadBytes()) != 1 { // RMW read
			t.Fatalf("B candidate %q ReadBytes = %d terms, want 1", c.Label, len(c.ReadBytes()))
		}
		if len(c.MemBytes()) != 1 {
			t.Fatalf("B candidate %q MemBytes = %d terms, want 1", c.Label, len(c.MemBytes()))
		}
		if len(c.BlockConstraints()) != 2 { // write block + RMW read block
			t.Fatalf("B candidate %q has %d block constraints, want 2", c.Label, len(c.BlockConstraints()))
		}
		if len(c.ReadOps()) != 1 || len(c.WriteOps()) != 2 {
			t.Fatalf("B candidate %q op-count terms wrong", c.Label)
		}
	}
	a := choiceByName(t, m, "A")
	for _, c := range a.Candidates {
		if len(c.WriteBytes()) != 0 || len(c.ReadBytes()) != 1 {
			t.Fatalf("input A candidate %q has wrong byte terms", c.Label)
		}
	}
}
