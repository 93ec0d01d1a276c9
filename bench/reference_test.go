package main

import (
	"math"
	"strings"
	"testing"
)

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The expected values below were worked out by hand.

func TestRefFourIndexSingleElement(t *testing.T) {
	// A has one non-zero element, A[p=1,q=0,r=1,s=0] = 2, so
	// B[a,b,c,d] = 2 · C4[1,a] · C3[0,b] · C2[1,c] · C1[0,d]. A different
	// matrix per mode catches a transform applied to the wrong index.
	a := make([]float64, 16)
	a[1*8+0*4+1*2+0] = 2
	c4 := []float64{1, 2, 3, 4}  // row 1: 3 4
	c3 := []float64{5, 6, 7, 8}  // row 0: 5 6
	c2 := []float64{1, 0, 2, 1}  // row 1: 2 1
	c1 := []float64{1, -1, 0, 1} // row 0: 1 -1
	want := []float64{60, -60, 30, -30, 72, -72, 36, -36, 80, -80, 40, -40, 96, -96, 48, -48}
	if got := refFourIndex(a, c1, c2, c3, c4, 2, 2); !equalFloats(got, want) {
		t.Errorf("refFourIndex = %v, want %v", got, want)
	}
}

func TestRefFourIndexIdentity(t *testing.T) {
	a := make([]float64, 16)
	for i := range a {
		a[i] = float64(i + 1)
	}
	id := []float64{1, 0, 0, 1}
	if got := refFourIndex(a, id, id, id, id, 2, 2); !equalFloats(got, a) {
		t.Errorf("identity transforms changed A: %v", got)
	}
}

func TestRefFourIndexRectangular(t *testing.T) {
	// N=2, V=1: every C is a 2×1 column, B has one element,
	// Σ_{pqrs} C4[p]·C3[q]·C2[r]·C1[s]·A[p,q,r,s] with all C = (1, 1):
	// the sum of A.
	a := make([]float64, 16)
	for i := range a {
		a[i] = float64(i + 1)
	}
	ones := []float64{1, 1}
	if got := refFourIndex(a, ones, ones, ones, ones, 2, 1); !equalFloats(got, []float64{136}) {
		t.Errorf("refFourIndex = %v, want [136]", got)
	}
}

func TestRefReduce(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8} // A[i,j,k], 2×2×2
	v := []float64{10, 1}
	want := []float64{12, 34, 56, 78}
	if got := refReduce(a, v, 2, 2); !equalFloats(got, want) {
		t.Errorf("refReduce = %v, want %v", got, want)
	}
}

func TestRefMatMul(t *testing.T) {
	want := []float64{19, 22, 43, 50}
	if got := refMatMul([]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, 2, 2); !equalFloats(got, want) {
		t.Errorf("refMatMul = %v, want %v", got, want)
	}
}

func TestCompareOutput(t *testing.T) {
	ref := []float64{1, -2, 1000}
	if err := compareOutput("C", []float64{1, -2, 1000 + 5e-8}, ref); err != nil {
		t.Errorf("difference inside 1e-10 × max|ref| rejected: %v", err)
	}
	for name, got := range map[string][]float64{
		"off by 1e-6": {1, -2 + 1e-6, 1000},
		"NaN":         {1, math.NaN(), 1000},
		"short":       {1, -2},
	} {
		err := compareOutput("C", got, ref)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), "C") {
			t.Errorf("%s: error does not name the output: %v", name, err)
		}
	}
}

// A mismatch must become a failed operation, not a panic or an abort.
func TestMismatchFailsTheOperation(t *testing.T) {
	p := newPassRec()
	if p.op("thin-write-serial", compareOutput("C", []float64{1}, []float64{2})) {
		t.Fatal("mismatching operation reported as passed")
	}
	if p.ops != 1 || p.failed != 1 || len(p.failures) != 1 {
		t.Errorf("ops %d failed %d failures %v, want 1 1 and one message", p.ops, p.failed, p.failures)
	}
}
