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

// multiTermSpec is a CCD-like residual with two contraction terms
// accumulating into the same output tensor (a sum of products).
const multiTermSpec = `
index i, j, k, l : 7;
index a, b, c, d : 6;
tensor F[a,c];
tensor T2[i,j,c,b];
tensor W[k,l,i,j];
tensor T2b[k,l,a,b];
R[i,j,a,b] = F[a,c] * T2[i,j,c,b];
R[i,j,a,b] += W[k,l,i,j] * T2b[k,l,a,b];
`

func TestMultiTermLowering(t *testing.T) {
	s, err := Parse(multiTermSpec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Lower("ccd-like")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Arrays["R"].Kind != loops.Output {
		t.Fatal("R must be an output")
	}
	// Two producing statements for R.
	producers := 0
	for _, site := range prog.Statements() {
		if site.Stmt.Out.Name == "R" {
			producers++
		}
	}
	if producers != 2 {
		t.Fatalf("R has %d producer statements, want 2", producers)
	}
	// A single init for R.
	inits := 0
	for _, n := range prog.Body {
		if in, ok := n.(*loops.Init); ok && in.Array == "R" {
			inits++
		}
	}
	if inits != 1 {
		t.Fatalf("R has %d inits, want 1", inits)
	}
}

func TestMultiTermEndToEnd(t *testing.T) {
	s, err := Parse(multiTermSpec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Lower("ccd-like")
	if err != nil {
		t.Fatal(err)
	}
	inputs := s.RandomInputs(21)
	want, err := s.EvalReference(inputs)
	if err != nil {
		t.Fatal(err)
	}
	// The interpreter must agree with the reference sum.
	got, err := loops.Interpret(prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(got["R"], want["R"]); d > 1e-9 {
		t.Fatalf("interpreter differs from reference by %g", d)
	}

	// Full synthesis + out-of-core execution, fused and unfused.
	for _, fuse := range []bool{false, true} {
		opts := []core.Option{core.WithMachine(machine.Small(3 << 10)), core.WithSeed(6), core.WithMaxEvals(40000)}
		if fuse {
			opts = append(opts, core.WithAutoFuse())
		}
		syn, err := core.SynthesizeOpts(context.Background(), prog.Clone(), opts...)
		if err != nil {
			t.Fatalf("fuse=%v: %v", fuse, err)
		}
		// Both producer sites get their own write choice.
		names := []string{}
		for _, ch := range syn.Model.Choices {
			names = append(names, ch.Name)
		}
		if !contains(names, "R@0") || !contains(names, "R@1") {
			t.Fatalf("fuse=%v: expected per-site output choices, got %v", fuse, names)
		}
		out, _, err := syn.RunSim(inputs)
		if err != nil {
			t.Fatalf("fuse=%v: %v", fuse, err)
		}
		if d := tensor.MaxAbsDiff(out["R"], want["R"]); d > 1e-9 {
			t.Fatalf("fuse=%v: out-of-core result differs by %g", fuse, d)
		}
		// The concrete code zero-initializes R exactly once.
		if n := strings.Count(syn.Plan.String(), "ZeroFill RDisk"); n != 1 {
			t.Fatalf("fuse=%v: %d init passes for R, want 1:\n%s", fuse, n, syn.Plan)
		}
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
