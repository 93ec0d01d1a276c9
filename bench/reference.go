package main

import (
	"fmt"
	"math"
	"math/rand"
)

// The reference evaluators are plain nested loops written here, on
// purpose sharing no code with the system under test (exec's compute
// interpreter, loops.Interpret, expr.Eval, tensor.MatMulAcc): a kernel
// change cannot share a bug with its oracle.

// randomData returns n seeded values in [-1, 1).
func randomData(rng *rand.Rand, n int64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 2*rng.Float64() - 1
	}
	return out
}

// modeProduct contracts mode m of the row-major tensor x (extents dims)
// with the matrix c[in][out]: y[..., out, ...] = Σ_in c[in][out] · x[..., in, ...].
func modeProduct(x []float64, dims []int64, m int, c []float64, nOut int64) ([]float64, []int64) {
	nIn := dims[m]
	outer, inner := int64(1), int64(1)
	for i := 0; i < m; i++ {
		outer *= dims[i]
	}
	for i := m + 1; i < len(dims); i++ {
		inner *= dims[i]
	}
	ydims := append([]int64(nil), dims...)
	ydims[m] = nOut
	y := make([]float64, outer*nOut*inner)
	for o := int64(0); o < outer; o++ {
		for in := int64(0); in < nIn; in++ {
			xrow := x[(o*nIn+in)*inner : (o*nIn+in+1)*inner]
			for out := int64(0); out < nOut; out++ {
				w := c[in*nOut+out]
				yrow := y[(o*nOut+out)*inner : (o*nOut+out+1)*inner]
				for i, v := range xrow {
					yrow[i] += w * v
				}
			}
		}
	}
	return y, ydims
}

// refFourIndex evaluates the AO-to-MO transform
//
//	B[a,b,c,d] = Σ_{p,q,r,s} C1[s,d] C2[r,c] C3[q,b] C4[p,a] A[p,q,r,s]
//
// as four successive mode products. a is N×N×N×N, every ck is N×V.
func refFourIndex(a, c1, c2, c3, c4 []float64, n, v int64) []float64 {
	dims := []int64{n, n, n, n}
	t := a
	for m, c := range [][]float64{c4, c3, c2, c1} { // p→a, q→b, r→c, s→d
		t, dims = modeProduct(t, dims, m, c, v)
	}
	return t
}

// refReduce evaluates C[i,j] = Σ_k A[i,j,k] · v[k] for A of n×n×k.
func refReduce(a, v []float64, n, k int64) []float64 {
	c := make([]float64, n*n)
	for ij := int64(0); ij < n*n; ij++ {
		sum := 0.0
		for kk := int64(0); kk < k; kk++ {
			sum += a[ij*k+kk] * v[kk]
		}
		c[ij] = sum
	}
	return c
}

// refMatMul evaluates C[i,j] = Σ_k A[i,k] · B[k,j] for A of n×k, B of k×n.
func refMatMul(a, b []float64, n, k int64) []float64 {
	c := make([]float64, n*n)
	for i := int64(0); i < n; i++ {
		for kk := int64(0); kk < k; kk++ {
			w := a[i*k+kk]
			for j := int64(0); j < n; j++ {
				c[i*n+j] += w * b[kk*n+j]
			}
		}
	}
	return c
}

// compareOutput checks an output against its reference: every element
// within 1e-10 × max|ref|. A mismatch is an error the caller counts as a
// failed operation.
func compareOutput(name string, got, ref []float64) error {
	if len(got) != len(ref) {
		return fmt.Errorf("output %s has %d elements, reference %d", name, len(got), len(ref))
	}
	scale := 0.0
	for _, r := range ref {
		scale = max(scale, math.Abs(r))
	}
	tol := 1e-10 * scale
	for i, r := range ref {
		// Written so that a NaN output fails the comparison.
		if !(math.Abs(got[i]-r) <= tol) {
			return fmt.Errorf("output %s[%d] = %g, reference %g (tolerance %g)", name, i, got[i], r, tol)
		}
	}
	return nil
}
