package tce

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/loops"
	"repro/internal/machine"
	"repro/internal/tensor"
)

const fourIndexSpec = `
# AO-to-MO four-index transform
range N = 10;
range V = 8;
index p, q, r, s : N;
index a, b, c, d : V;
tensor A[p,q,r,s];
tensor C1[s,d];
tensor C2[r,c];
tensor C3[q,b];
tensor C4[p,a];
B[a,b,c,d] = C1[s,d] * C2[r,c] * C3[q,b] * C4[p,a] * A[p,q,r,s];
`

func TestParseFourIndexSpec(t *testing.T) {
	s, err := Parse(fourIndexSpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ranges["N"] != 10 || s.Ranges["V"] != 8 {
		t.Fatalf("ranges = %v", s.Ranges)
	}
	if s.IndexRanges["p"] != 10 || s.IndexRanges["d"] != 8 {
		t.Fatalf("index ranges = %v", s.IndexRanges)
	}
	if len(s.Inputs) != 5 {
		t.Fatalf("inputs = %v", s.Inputs)
	}
	if len(s.Statements) != 1 {
		t.Fatalf("statements = %d", len(s.Statements))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                       // no statements
		"range N;",                               // malformed range
		"range N = x;",                           // bad value
		"range N = 4; range N = 5; X[i] = A[i];", // duplicate range
		"index i : M; X[i] = A[i];",              // unknown range
		"index i : 4; index i : 4; X[i] = A[i];", // duplicate index
		"index i : 4; tensor A[i]; tensor A[i]; X[i] = A[i];", // duplicate tensor
		"index i : 4; tensor A(i); X[i] = A[i];",              // malformed tensor decl
		"index i : 4; X[i] = A[z];",                           // unknown index in stmt
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestLowerKinds(t *testing.T) {
	src := `
index i, j, k : 6;
tensor A[i,j];
tensor B[j,k];
tensor C[k,i];
# X is consumed later, so it is an intermediate; Y is the output.
X[i,k] = A[i,j] * B[j,k];
Y[i] = X[i,k] * C[k,i];
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Lower("chain")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Arrays["X"].Kind != loops.Intermediate {
		t.Fatalf("X kind = %v, want intermediate", prog.Arrays["X"].Kind)
	}
	if prog.Arrays["Y"].Kind != loops.Output {
		t.Fatalf("Y kind = %v, want output", prog.Arrays["Y"].Kind)
	}
	if prog.Arrays["A"].Kind != loops.Input {
		t.Fatalf("A kind = %v, want input", prog.Arrays["A"].Kind)
	}
}

func TestLowerErrors(t *testing.T) {
	cases := []string{
		// Target is a declared input.
		"index i : 4; tensor A[i]; A[i] = A[i] * A[i];",
		// Multi-term INTERMEDIATE (consumed later) is unsupported.
		"index i : 4; tensor A[i]; X[i] = A[i] * A[i]; X[i] = A[i] * A[i]; Y[i] = X[i] * A[i];",
		// Operand never produced or declared.
		"index i : 4; tensor A[i]; X[i] = A[i] * Q[i];",
		// Statement consumes its own target.
		"index i : 4; tensor A[i]; X[i] = X[i] * A[i];",
	}
	for _, src := range cases {
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := s.Lower("bad"); err == nil {
			t.Errorf("Lower(%q) should fail", src)
		}
	}
}

func TestLoweredProgramMatchesReference(t *testing.T) {
	s, err := Parse(fourIndexSpec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Lower("four-index")
	if err != nil {
		t.Fatal(err)
	}
	inputs := s.RandomInputs(5)
	want, err := s.EvalReference(inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loops.Interpret(prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(got["B"], want["B"]); d > 1e-8 {
		t.Fatalf("lowered program differs from reference by %g", d)
	}
}

func TestMultiStatementEndToEnd(t *testing.T) {
	// Full pipeline on a two-statement spec with a cross-statement
	// intermediate: parse → lower → fuse → synthesize → execute → verify.
	src := `
index i, j, k, l : 8;
tensor A[i,j];
tensor B[j,k];
tensor C[k,l];
X[i,k] = A[i,j] * B[j,k];
Y[i,l] = X[i,k] * C[k,l];
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Lower("two-stage")
	if err != nil {
		t.Fatal(err)
	}
	inputs := s.RandomInputs(11)
	want, err := s.EvalReference(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, fuse := range []bool{false, true} {
		opts := []core.Option{core.WithMachine(machine.Small(2 << 10)), core.WithSeed(4), core.WithMaxEvals(40000)}
		if fuse {
			opts = append(opts, core.WithAutoFuse())
		}
		syn, err := core.SynthesizeOpts(context.Background(), prog.Clone(), opts...)
		if err != nil {
			t.Fatalf("fuse=%v: %v", fuse, err)
		}
		got, _, err := syn.RunSim(inputs)
		if err != nil {
			t.Fatalf("fuse=%v: %v", fuse, err)
		}
		if d := tensor.MaxAbsDiff(got["Y"], want["Y"]); d > 1e-9 {
			t.Fatalf("fuse=%v: Y differs by %g", fuse, d)
		}
	}
}

func TestLowerFourIndexSynthesizesAtPaperScale(t *testing.T) {
	src := strings.ReplaceAll(fourIndexSpec, "range N = 10", "range N = 140")
	src = strings.ReplaceAll(src, "range V = 8", "range V = 120")
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Lower("four-index-140")
	if err != nil {
		t.Fatal(err)
	}
	syn, err := core.SynthesizeOpts(context.Background(), prog, core.WithSeed(1), core.WithAutoFuse())
	if err != nil {
		t.Fatal(err)
	}
	if syn.Predicted() <= 0 {
		t.Fatal("no predicted cost")
	}
	if syn.Plan.MemoryBytes() > machine.OSCItanium2().MemoryLimit {
		t.Fatal("memory limit violated")
	}
}
