package nlp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/tiling"
)

func fig4Problem(t *testing.T) *Problem {
	t.Helper()
	prog := loops.TwoIndexFused(35000, 40000)
	tree, err := tiling.Tile(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 1 * machine.GB
	m, err := placement.Enumerate(tree, cfg, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Build(m)
}

func TestProblemLayout(t *testing.T) {
	p := fig4Problem(t)
	if len(p.TileVars) != 4 {
		t.Fatalf("tile vars = %v, want 4 (i,j,m,n)", p.TileVars)
	}
	// A, C1, C2, B: 2 candidates → 1 bit; T: 2 candidates → 1 bit.
	if p.NumLambda != 5 {
		t.Fatalf("NumLambda = %d, want 5", p.NumLambda)
	}
	if p.Dim() != 9 {
		t.Fatalf("Dim = %d, want 9", p.Dim())
	}
	lo, hi := p.Bounds(0)
	if lo != 1 || hi != p.Ranges[0] {
		t.Fatalf("tile bounds = [%d,%d]", lo, hi)
	}
	lo, hi = p.Bounds(p.Dim() - 1)
	if lo != 0 || hi != 1 {
		t.Fatalf("lambda bounds = [%d,%d]", lo, hi)
	}
}

// TestBitsFor pins the paper's ⌈log2(m)⌉ λ bits per array of the binary
// encoding.
func TestBitsFor(t *testing.T) {
	for m, want := range map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4} {
		if got := bitsFor(m); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", m, got, want)
		}
	}
}

func TestSelectedDecoding(t *testing.T) {
	p := fig4Problem(t)
	x := p.Encode(map[string]int64{"i": 10, "j": 10, "m": 10, "n": 10}, map[string]int{"A": 1, "T": 0})
	sel := p.Selected(x)
	for ci, ch := range p.Choices {
		want := 0
		if ch.Name == "A" {
			want = 1
		}
		if sel[ci] != want {
			t.Fatalf("choice %s selected %d, want %d", ch.Name, sel[ci], want)
		}
	}
	a := p.Decode(x)
	if a.Tiles["i"] != 10 {
		t.Fatalf("decoded tile i = %d", a.Tiles["i"])
	}
	if !strings.Contains(a.Selected["A"].Label, "above nT") {
		t.Fatalf("decoded A selection = %q, want the 'above nT' placement", a.Selected["A"].Label)
	}
}

func TestCodeOverflowMapsToLastCandidate(t *testing.T) {
	// With 3 candidates and 2 bits, codes 2 and 3 both select candidate 2.
	prog := loops.FourIndexAbstract(140, 120)
	tree, _ := tiling.Tile(prog)
	m, err := placement.Enumerate(tree, machine.OSCItanium2(), placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := Build(m)
	var three *ChoiceEnc
	for i := range p.Choices {
		if p.Choices[i].M == 3 {
			three = &p.Choices[i]
			break
		}
	}
	if three == nil {
		t.Skip("no 3-candidate choice in this model")
	}
	x := p.Encode(nil, map[string]int{three.Name: 2})
	// Set both bits: code 3 ≥ M → must clamp to candidate 2.
	x[len(p.TileVars)+three.BitOffset] = 1
	x[len(p.TileVars)+three.BitOffset+1] = 1
	sel := p.Selected(x)
	for ci := range p.Choices {
		if p.Choices[ci].Name == three.Name && sel[ci] != 2 {
			t.Fatalf("code 3 selected %d, want 2", sel[ci])
		}
	}
}

func TestObjectiveMatchesHandComputation(t *testing.T) {
	// Select: A above nT (read Size_A once), everything else at candidate
	// 0, with dividing tile sizes; check A's contribution appears exactly.
	p := fig4Problem(t)
	tiles := map[string]int64{"i": 1000, "j": 40000, "m": 875, "n": 875}
	x0 := p.Encode(tiles, map[string]int{"A": 0})
	x1 := p.Encode(tiles, map[string]int{"A": 1})
	d := p.Model.Cfg.Disk
	ranges := p.Model.Prog.Ranges

	// Candidate 0 (leaf): bytes = ceil(Nn/Tn) × padded Size_A; ops = trips(i,n,j).
	nTrips := float64((ranges["n"] + tiles["n"] - 1) / tiles["n"])
	iTrips := float64((ranges["i"] + tiles["i"] - 1) / tiles["i"])
	jTrips := float64((ranges["j"] + tiles["j"] - 1) / tiles["j"])
	padded := iTrips * float64(tiles["i"]) * jTrips * float64(tiles["j"]) * 8
	want0 := nTrips*padded/d.ReadBandwidth + iTrips*nTrips*jTrips*d.SeekTime
	// Candidate 1 (above nT): bytes = padded_i × N_j; ops = trips(i).
	padded1 := iTrips * float64(tiles["i"]) * float64(ranges["j"]) * 8
	want1 := padded1/d.ReadBandwidth + iTrips*d.SeekTime

	diff := p.Objective(x0) - p.Objective(x1)
	if math.Abs(diff-(want0-want1)) > 1e-9*math.Abs(want0-want1) {
		t.Fatalf("objective difference = %g, want %g", diff, want0-want1)
	}
}

func TestViolationsMemory(t *testing.T) {
	p := fig4Problem(t)
	// Full-range tiles blow the memory limit.
	huge := p.Encode(map[string]int64{"i": 40000, "j": 40000, "m": 35000, "n": 35000}, nil)
	v := p.Violations(huge)
	if v[0] <= 0 {
		t.Fatal("full-range tiles must violate the memory limit")
	}
	if p.Feasible(huge) {
		t.Fatal("Feasible must be false")
	}
	// Tiny tiles violate the minimum block size instead.
	tiny := p.Encode(map[string]int64{"i": 1, "j": 1, "m": 1, "n": 1}, nil)
	v = p.Violations(tiny)
	if v[0] != 0 {
		t.Fatal("tiny tiles must satisfy the memory limit")
	}
	blockViolated := false
	for _, bv := range v[1:] {
		if bv > 0 {
			blockViolated = true
		}
	}
	if !blockViolated {
		t.Fatal("1-element buffers must violate the 2MB/1MB block constraints")
	}
}

func TestFeasiblePointExists(t *testing.T) {
	p := fig4Problem(t)
	// A hand-picked reasonable point: moderate tiles, T in memory.
	x := p.Encode(map[string]int64{"i": 2000, "j": 2000, "m": 2000, "n": 2000},
		map[string]int{"A": 0, "C1": 0, "C2": 0, "B": 0, "T": 0})
	if !p.Feasible(x) {
		t.Fatalf("expected feasible point; violations = %v, memory = %g",
			p.Violations(x), p.MemoryUsage(x))
	}
	if p.Objective(x) <= 0 {
		t.Fatal("objective must be positive")
	}
}

func TestMemoryUsageMatchesTerms(t *testing.T) {
	p := fig4Problem(t)
	tiles := map[string]int64{"i": 100, "j": 200, "m": 300, "n": 400}
	x := p.Encode(tiles, nil) // all candidate 0: leaf reads, T in memory, B leaf write
	// A[Ti,Tj] + C1[Tm,Ti] + C2[Tn,Tj] + T[Tn,Ti] + B[Tm,Tn], all ×8 bytes.
	want := float64(100*200+300*100+400*200+400*100+300*400) * 8
	if got := p.MemoryUsage(x); math.Abs(got-want) > 1e-6 {
		t.Fatalf("MemoryUsage = %g, want %g", got, want)
	}
}

func TestWriteAMPL(t *testing.T) {
	p := fig4Problem(t)
	var b strings.Builder
	if err := p.WriteAMPL(&b); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	for _, want := range []string{
		"param N_i := 40000;",
		"param MemoryLimit := 1073741824;",
		"var T_n integer >= 1, <= N_n;",
		"minimize disk_io_cost:",
		"subject to memory_limit:",
		"lam_",
		"* (1 - lam_", // binary constraint λ(1-λ)=0
		"ceil(N_n / T_n)",
		"MinReadBlock",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("AMPL output missing %q:\n%s", want, s)
		}
	}
}

func TestEncodeClampsTiles(t *testing.T) {
	p := fig4Problem(t)
	x := p.Encode(map[string]int64{"i": 99999999, "j": 0}, nil)
	a := p.Decode(x)
	if a.Tiles["i"] != 40000 {
		t.Fatalf("tile i = %d, want clamped to 40000", a.Tiles["i"])
	}
	if a.Tiles["j"] != 1 {
		t.Fatalf("tile j = %d, want clamped to 1", a.Tiles["j"])
	}
}

func TestDescribeDeterministic(t *testing.T) {
	p := fig4Problem(t)
	x := p.Encode(map[string]int64{"i": 10, "j": 10, "m": 10, "n": 10}, nil)
	a := p.Decode(x)
	s1, s2 := a.Describe(), a.Describe()
	if s1 != s2 {
		t.Fatal("Describe not deterministic")
	}
	if !strings.Contains(s1, "Ti = 10") {
		t.Fatalf("Describe missing tiles:\n%s", s1)
	}
}
