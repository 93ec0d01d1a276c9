package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/leaktest"
)

func TestNewZeroFilled(t *testing.T) {
	a := New(3, 4)
	if a.Rank() != 2 || a.Dim(0) != 3 || a.Dim(1) != 4 || a.Size() != 12 {
		t.Fatalf("unexpected shape: rank=%d dims=%v size=%d", a.Rank(), a.Dims(), a.Size())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestScalarTensor(t *testing.T) {
	s := New()
	if s.Size() != 1 {
		t.Fatalf("scalar tensor size = %d, want 1", s.Size())
	}
	s.Set(2.5)
	if s.At() != 2.5 {
		t.Fatalf("scalar At = %v, want 2.5", s.At())
	}
	s.Add(1.5)
	if s.At() != 4 {
		t.Fatalf("scalar Add: got %v, want 4", s.At())
	}
}

func TestAtSetRowMajor(t *testing.T) {
	a := New(2, 3)
	a.Set(1, 0, 0)
	a.Set(2, 0, 2)
	a.Set(3, 1, 0)
	want := []float64{1, 0, 2, 3, 0, 0}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("data[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) must panic")
		}
	}()
	New(3, 0)
}

func TestAtPanicsOutOfRange(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range must panic")
		}
	}()
	a.At(2, 0)
}

func TestFromDataLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromData with wrong length must panic")
		}
	}()
	FromData([]float64{1, 2, 3}, 2, 2)
}

func TestReshape(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	if b.At(2, 1) != 6 {
		t.Fatalf("reshape At(2,1) = %v, want 6", b.At(2, 1))
	}
	b.Set(9, 0, 0)
	if a.At(0, 0) != 9 {
		t.Fatal("Reshape must share storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestExtractInsertBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(5, 7)
	for i := range a.Data() {
		a.Data()[i] = rng.Float64()
	}
	blk := a.ExtractBlock([]int{1, 2}, []int{3, 4})
	if blk.Dim(0) != 3 || blk.Dim(1) != 4 {
		t.Fatalf("block dims = %v", blk.Dims())
	}
	if blk.At(0, 0) != a.At(1, 2) || blk.At(2, 3) != a.At(3, 5) {
		t.Fatal("extracted block content mismatch")
	}
	b := New(5, 7)
	b.InsertBlock(blk, []int{1, 2})
	if b.At(1, 2) != a.At(1, 2) || b.At(3, 5) != a.At(3, 5) {
		t.Fatal("insert block content mismatch")
	}
	if b.At(0, 0) != 0 {
		t.Fatal("insert must not touch elements outside the block")
	}
}

func TestExtractBlockClipsAtBoundary(t *testing.T) {
	a := New(5, 5)
	blk := a.ExtractBlock([]int{3, 4}, []int{4, 4})
	if blk.Dim(0) != 2 || blk.Dim(1) != 1 {
		t.Fatalf("clipped block dims = %v, want [2 1]", blk.Dims())
	}
}

func TestBlockTilingCoversTensor(t *testing.T) {
	// Property: extracting all tiles and re-inserting them reconstructs the
	// tensor exactly, for arbitrary tile sizes (including non-dividing).
	f := func(seed int64, t1, t2 uint8) bool {
		rows, cols := 6, 9
		tile1 := int(t1)%rows + 1
		tile2 := int(t2)%cols + 1
		rng := rand.New(rand.NewSource(seed))
		a := New(rows, cols)
		for i := range a.Data() {
			a.Data()[i] = rng.Float64()
		}
		b := New(rows, cols)
		for r := 0; r < rows; r += tile1 {
			for c := 0; c < cols; c += tile2 {
				blk := a.ExtractBlock([]int{r, c}, []int{tile1, tile2})
				b.InsertBlock(blk, []int{r, c})
			}
		}
		return EqualApprox(a, b, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIteratorOrderAndOffsets(t *testing.T) {
	it := NewIterator([]int{2, 3})
	var got [][2]int
	for it.Next() {
		idx := it.Index()
		if it.Offset() != len(got) {
			t.Fatalf("offset %d at step %d", it.Offset(), len(got))
		}
		got = append(got, [2]int{idx[0], idx[1]})
	}
	want := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if len(got) != len(want) {
		t.Fatalf("iterated %d indices, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestIteratorScalarSpace(t *testing.T) {
	it := NewIterator(nil)
	n := 0
	for it.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("scalar space iterated %d times, want 1", n)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func randomTensor(rng *rand.Rand, dims ...int) *Tensor {
	t := New(dims...)
	for i := range t.Data() {
		t.Data()[i] = rng.NormFloat64()
	}
	return t
}

func TestMatMulAccMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {70, 65, 130}, {129, 64, 1}} {
		a := randomTensor(rng, dims[0], dims[1])
		b := randomTensor(rng, dims[1], dims[2])
		c := New(dims[0], dims[2])
		MatMulAcc(c, a, b)
		want := naiveMatMul(a, b)
		if MaxAbsDiff(c, want) > 1e-9 {
			t.Fatalf("MatMulAcc mismatch for %v: maxdiff %g", dims, MaxAbsDiff(c, want))
		}
	}
}

func TestMatMulAccAccumulates(t *testing.T) {
	a := FromData([]float64{1, 0, 0, 1}, 2, 2)
	b := FromData([]float64{1, 2, 3, 4}, 2, 2)
	c := FromData([]float64{10, 10, 10, 10}, 2, 2)
	MatMulAcc(c, a, b)
	if c.At(0, 0) != 11 || c.At(1, 1) != 14 {
		t.Fatalf("accumulation wrong: %v", c)
	}
}

// TestContractionMatchesEinsum runs a three-factor nest with two contracted
// loops (the second longer than the blocking factor) through Contraction,
// serially and split across workers, against the reference einsum; no
// worker goroutine outlives Run.
func TestContractionMatchesEinsum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const ni, nk, nl, nj = 5, 3, 70, 6
	a, b, v := randomTensor(rng, ni, nk, nl), randomTensor(rng, nl, nj), randomTensor(rng, nk)
	want := MustEinsum([]string{"i", "j"},
		Operand{a, []string{"i", "k", "l"}}, Operand{b, []string{"l", "j"}}, Operand{v, []string{"k"}})
	for _, workers := range []int{1, 3} {
		con := NewContraction([]bool{true, false, false, true}, 3) // i k l j
		blk := con.NewBlock()
		copy(blk.Ext, []int{ni, nk, nl, nj})
		copy(blk.Stride, []int{
			nj, 0, 0, 1, // out[i,j]
			nk * nl, nl, 1, 0, // a[i,k,l]
			0, 0, nj, 1, // b[l,j]
			0, 1, 0, 0, // v[k]
		})
		out := New(ni, nj)
		blk.Data[0], blk.Data[1], blk.Data[2], blk.Data[3] = out.data, a.data, b.data, v.data
		noLeak := leaktest.Check(t)
		con.Run(blk, workers)
		// Read the output before noLeak, which waits for stray workers:
		// a Run that returns before its workers finish shows here.
		d := MaxAbsDiff(out, want)
		noLeak()
		if d > 1e-9 {
			t.Fatalf("workers %d: contraction differs from einsum by %g", workers, d)
		}
	}

	// A block big enough that three workers are still running when a Run
	// without its join would return: out[i,j] = Σ_l x[i,l]·y[l,j] split
	// over them must equal the serial result bit for bit.
	const n, nm = 192, 96
	x, y := randomTensor(rng, n, nm), randomTensor(rng, nm, n)
	var serial []float64
	for _, workers := range []int{1, 3} {
		con := NewContraction([]bool{true, false, true}, 2) // i l j
		blk := con.NewBlock()
		copy(blk.Ext, []int{n, nm, n})
		copy(blk.Stride, []int{
			n, 0, 1, // out[i,j]
			nm, 1, 0, // x[i,l]
			0, n, 1, // y[l,j]
		})
		out := New(n, n)
		blk.Data[0], blk.Data[1], blk.Data[2] = out.data, x.data, y.data
		noLeak := leaktest.Check(t)
		con.Run(blk, workers)
		got := append([]float64(nil), out.data...)
		noLeak()
		if serial == nil {
			serial = got
			continue
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(serial[i]) {
				t.Fatalf("workers %d: element %d is %g after Run, serial %g", workers, i, got[i], serial[i])
			}
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch must panic")
		}
	}()
	MatMulAcc(New(2, 2), New(2, 3), New(2, 2))
}

func TestEinsumMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomTensor(rng, 4, 6)
	b := randomTensor(rng, 6, 5)
	got := MustEinsum([]string{"i", "j"},
		Operand{a, []string{"i", "k"}},
		Operand{b, []string{"k", "j"}})
	want := naiveMatMul(a, b)
	if MaxAbsDiff(got, want) > 1e-9 {
		t.Fatal("einsum matmul mismatch")
	}
}

func TestEinsumTwoIndexTransform(t *testing.T) {
	// B(m,n) = Σ_{i,j} C1(m,i) C2(n,j) A(i,j) — the paper's running example —
	// computed directly and via the operation-minimal two-step form.
	rng := rand.New(rand.NewSource(6))
	ni, nj, nm, nn := 5, 6, 4, 3
	a := randomTensor(rng, ni, nj)
	c1 := randomTensor(rng, nm, ni)
	c2 := randomTensor(rng, nn, nj)

	direct := MustEinsum([]string{"m", "n"},
		Operand{c1, []string{"m", "i"}},
		Operand{c2, []string{"n", "j"}},
		Operand{a, []string{"i", "j"}})

	tIntermediate := MustEinsum([]string{"n", "i"},
		Operand{c2, []string{"n", "j"}},
		Operand{a, []string{"i", "j"}})
	twoStep := MustEinsum([]string{"m", "n"},
		Operand{c1, []string{"m", "i"}},
		Operand{tIntermediate, []string{"n", "i"}})

	if MaxAbsDiff(direct, twoStep) > 1e-9 {
		t.Fatalf("two-step factorization differs from direct: %g", MaxAbsDiff(direct, twoStep))
	}
}

func TestEinsumTrace(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 4}, 2, 2)
	got := MustEinsum(nil, Operand{a, []string{"i", "i"}})
	// Σ_i a[i,i]: label i appears twice in one operand; both positions move
	// together, so the diagonal is summed.
	if got.At() != 5 {
		t.Fatalf("trace = %v, want 5", got.At())
	}
}

func TestEinsumErrors(t *testing.T) {
	a := New(2, 3)
	if _, err := Einsum([]string{"i"}, Operand{a, []string{"i"}}); err == nil {
		t.Error("rank/label mismatch must error")
	}
	b := New(4, 3)
	if _, err := Einsum([]string{"i"}, Operand{a, []string{"i", "j"}}, Operand{b, []string{"i", "j"}}); err == nil {
		t.Error("conflicting extents must error")
	}
	if _, err := Einsum([]string{"z"}, Operand{a, []string{"i", "j"}}); err == nil {
		t.Error("unknown output label must error")
	}
	if _, err := Einsum([]string{"i", "i"}, Operand{a, []string{"i", "j"}}); err == nil {
		t.Error("duplicate output label must error")
	}
}

func TestEqualApproxAndMaxAbsDiff(t *testing.T) {
	a := FromData([]float64{1, 2}, 2)
	b := FromData([]float64{1, 2.0001}, 2)
	if !EqualApprox(a, b, 1e-3) {
		t.Error("EqualApprox within tol must hold")
	}
	if EqualApprox(a, b, 1e-6) {
		t.Error("EqualApprox outside tol must fail")
	}
	if d := MaxAbsDiff(a, b); math.Abs(d-0.0001) > 1e-12 {
		t.Errorf("MaxAbsDiff = %g", d)
	}
	c := New(2, 1)
	if EqualApprox(a, c, 1) {
		t.Error("different shapes must not be equal")
	}
}
