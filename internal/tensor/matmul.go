package tensor

import "fmt"

// MatMulAcc computes C += A × B for 2-D tensors with compatible shapes
// (A: m×k, B: k×n, C: m×n): the three-index nest (i, k, j) of the shared
// Contraction kernel, run on the calling goroutine.
func MatMulAcc(c, a, b *Tensor) {
	m, k, n := checkGemmShapes(c, a, b)
	con := NewContraction([]bool{true, false, true}, 2)
	blk := con.NewBlock()
	copy(blk.Ext, []int{m, k, n})
	copy(blk.Stride, []int{
		n, 0, 1, // C[i,j]
		k, 1, 0, // A[i,k]
		0, n, 1, // B[k,j]
	})
	blk.Data[0], blk.Data[1], blk.Data[2] = c.data, a.data, b.data
	con.Run(blk, 1)
}

func checkGemmShapes(c, a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || c.Rank() != 2 {
		panic("tensor: MatMulAcc requires rank-2 tensors")
	}
	m, k = a.dims[0], a.dims[1]
	if b.dims[0] != k {
		panic(fmt.Sprintf("tensor: inner dimension mismatch %v × %v", a.dims, b.dims))
	}
	n = b.dims[1]
	if c.dims[0] != m || c.dims[1] != n {
		panic(fmt.Sprintf("tensor: output shape %v does not match %dx%d", c.dims, m, n))
	}
	return m, k, n
}
