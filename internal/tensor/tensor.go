// Package tensor provides the dense multi-dimensional array substrate used
// throughout the synthesis system: row-major tensors, block extraction and
// insertion (the unit of out-of-core I/O), index permutation, the strided
// multiply-accumulate kernel every in-memory tile product runs through
// (Contraction), and a reference einsum used to verify that synthesized
// out-of-core plans compute the same values as the abstract specification.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major tensor of float64 elements.
type Tensor struct {
	dims    []int
	strides []int
	data    []float64
}

// New returns a zero-filled tensor with the given dimensions.
// A tensor with no dimensions is a scalar holding one element.
func New(dims ...int) *Tensor {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in %v", d, dims))
		}
		n *= d
	}
	t := &Tensor{
		dims: append([]int(nil), dims...),
		data: make([]float64, n),
	}
	t.strides = rowMajorStrides(t.dims)
	return t
}

// FromData wraps data (not copied) as a tensor with the given dimensions.
// len(data) must equal the product of dims.
func FromData(data []float64, dims ...int) *Tensor {
	n := 1
	for _, d := range dims {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match dims %v (need %d)", len(data), dims, n))
	}
	return &Tensor{
		dims:    append([]int(nil), dims...),
		strides: rowMajorStrides(dims),
		data:    data,
	}
}

func rowMajorStrides(dims []int) []int {
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	return strides
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.dims) }

// Dims returns a copy of the dimension sizes.
func (t *Tensor) Dims() []int { return append([]int(nil), t.dims...) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.dims[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage slice (row-major).
func (t *Tensor) Data() []float64 { return t.data }

// offset converts a multi-index to a flat offset, panicking on out-of-range
// indices.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.dims) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.dims)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.dims[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for dims %v", idx, t.dims))
		}
		off += x * t.strides[i]
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Add accumulates v into the element at the given multi-index.
func (t *Tensor) Add(v float64, idx ...int) { t.data[t.offset(idx)] += v }

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.dims...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's data with new dimensions whose
// product must equal t.Size().
func (t *Tensor) Reshape(dims ...int) *Tensor {
	n := 1
	for _, d := range dims {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (size %d) to %v", t.dims, len(t.data), dims))
	}
	return FromData(t.data, dims...)
}

// EqualApprox reports whether a and b have identical shape and element-wise
// values within tol.
func EqualApprox(a, b *Tensor, tol float64) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := range a.dims {
		if a.dims[i] != b.dims[i] {
			return false
		}
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum element-wise absolute difference between
// two same-shaped tensors.
func MaxAbsDiff(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic("tensor: MaxAbsDiff on tensors of different size")
	}
	m := 0.0
	for i := range a.data {
		if d := math.Abs(a.data[i] - b.data[i]); d > m {
			m = d
		}
	}
	return m
}

// ExtractBlock copies the hyper-rectangular block starting at lo with the
// given shape into a freshly allocated tensor. The block is clipped against
// t's bounds; the returned tensor has the clipped shape.
func (t *Tensor) ExtractBlock(lo, shape []int) *Tensor {
	clipped := clipShape(t.dims, lo, shape)
	out := New(clipped...)
	t.copyBlock(out, lo, clipped, true)
	return out
}

// InsertBlock copies block into t at offset lo, overwriting.
func (t *Tensor) InsertBlock(block *Tensor, lo []int) {
	t.copyBlock(block, lo, block.dims, false)
}

func clipShape(dims, lo, shape []int) []int {
	clipped := make([]int, len(shape))
	for i := range shape {
		hi := lo[i] + shape[i]
		if hi > dims[i] {
			hi = dims[i]
		}
		clipped[i] = hi - lo[i]
		if clipped[i] <= 0 {
			panic(fmt.Sprintf("tensor: empty block lo=%v shape=%v dims=%v", lo, shape, dims))
		}
	}
	return clipped
}

// copyBlock moves data between t and block; extract=true copies t→block,
// otherwise block→t.
func (t *Tensor) copyBlock(block *Tensor, lo, shape []int, extract bool) {
	if len(lo) != len(t.dims) || len(shape) != len(t.dims) {
		panic("tensor: block rank mismatch")
	}
	srcIdx := make([]int, len(t.dims))
	it := NewIterator(shape)
	for it.Next() {
		for i := range srcIdx {
			srcIdx[i] = lo[i] + it.Index()[i]
		}
		toff := t.offset(srcIdx)
		if extract {
			block.data[it.Offset()] = t.data[toff]
		} else {
			t.data[toff] = block.data[it.Offset()]
		}
	}
}

// String renders small tensors for debugging; large tensors render as a
// shape summary.
func (t *Tensor) String() string {
	if len(t.data) > 64 {
		return fmt.Sprintf("Tensor%v{%d elements}", t.dims, len(t.data))
	}
	return fmt.Sprintf("Tensor%v%v", t.dims, t.data)
}
