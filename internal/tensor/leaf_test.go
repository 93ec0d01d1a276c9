package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// unitLeaf is one unit-stride leaf as this architecture runs it, its Go
// loop, and its fold (nil where there is none).
type unitLeaf struct {
	name     string
	got, ref leafFunc
	fold     foldFunc
	// so, sx, sy are the innermost loop's strides; held marks a leaf whose
	// outer loop leaves the output in place.
	so, sx, sy int
	held       bool
}

var unitLeaves = []unitLeaf{
	{"heldFirst", heldFirst, heldFirstGo, heldFirstFold, 1, 0, 1, true},
	{"heldSecond", heldSecond, heldSecondGo, heldSecondFold, 1, 1, 0, true},
	{"axpyFirst", axpyFirst, axpyFirstGo, nil, 1, 0, 1, false},
	{"axpySecond", axpySecond, axpySecondGo, nil, 1, 1, 0, false},
}

// leafCase is one randomized call: q trips of a folded level (q is 1 for
// a plain leaf call) around m trips of the leaf's outer loop, n along the
// innermost one.
type leafCase struct {
	q, m, n    int
	o, x, y    int // origins
	qo, qx, qy int // strides of the folded level
	po, px, py int // strides of the leaf's outer loop
}

// special are the values drawn a fifth of the time: signed zeros,
// subnormals, infinities, NaN, and magnitudes whose products overflow or
// underflow.
var special = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1.8p-1040,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -0x1p600, 0x1p-600,
}

func leafValues(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if rng.Intn(5) == 0 {
			s[i] = special[rng.Intn(len(special))]
		} else {
			s[i] = rng.NormFloat64()
		}
	}
	return s
}

// stride draws a stride along a loop whose innermost neighbour runs n
// elements: zero, one, exactly n, or anything up to 2n+3.
func stride(rng *rand.Rand, n int) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return n
	}
	return rng.Intn(2*n + 4)
}

// disjoint draws a stride that moves the output past n columns, or leaves
// it in place: the two ways a loop around the leaf may move it without
// two trips sharing an output element (the summation rule's premise).
func disjoint(rng *rand.Rand, n int) int {
	if rng.Intn(3) == 0 {
		return 0
	}
	return n + rng.Intn(4)
}

// reach returns the length an operand needs: origin, then the last trip
// of every loop.
func reach(base int, walk ...int) int {
	for i := 0; i < len(walk); i += 2 {
		base += (walk[i] - 1) * walk[i+1]
	}
	return base + 1
}

// sameBits reports whether got and want are equal bit for bit, a NaN
// matching any NaN.
func sameBits(got, want []float64) (int, bool) {
	for i := range got {
		g, w := got[i], want[i]
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return i, false
		}
	}
	return 0, true
}

// TestLeafKernelsMatchGoLoops is the differential test of the unit-stride
// leaves: over randomized shapes (every remainder of n mod 8, m of 1, 2
// or odd), origins and strides (zeros included), and values (signed zeros,
// subnormals, infinities and NaN among them), each leaf this architecture
// runs, and each fold over q trips, leaves exactly the output bits of its
// Go loop run trip by trip. Every element of the output slice is compared,
// so a kernel that wrote outside its columns fails too.
func TestLeafKernelsMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, lf := range unitLeaves {
		for trial := 0; trial < 600; trial++ {
			c := leafCase{q: 1, m: []int{1, 2, 3, 5, 7, 9}[rng.Intn(6)], n: 1 + rng.Intn(23)}
			folded := lf.fold != nil && trial%2 == 1
			if folded {
				c.q = 1 + rng.Intn(3)
				c.qo, c.qx, c.qy = disjoint(rng, c.n), stride(rng, c.n), stride(rng, c.n)
			}
			c.px, c.py = stride(rng, c.n), stride(rng, c.n)
			if !lf.held {
				c.po = disjoint(rng, c.n)
			}
			c.o, c.x, c.y = rng.Intn(3), rng.Intn(3), rng.Intn(3)
			out := leafValues(rng, reach(c.o, c.q, c.qo, c.m, c.po, c.n, lf.so)+rng.Intn(3))
			fx := leafValues(rng, reach(c.x, c.q, c.qx, c.m, c.px, c.n, lf.sx)+rng.Intn(3))
			fy := leafValues(rng, reach(c.y, c.q, c.qy, c.m, c.py, c.n, lf.sy)+rng.Intn(3))

			want := append([]float64(nil), out...)
			for i, o, x, y := 0, c.o, c.x, c.y; i < c.q; i++ {
				lf.ref(c.m, c.n, o, x, y, c.po, c.px, c.py, lf.so, lf.sx, lf.sy, want, fx, fy)
				o, x, y = o+c.qo, x+c.qx, y+c.qy
			}
			got := append([]float64(nil), out...)
			if folded {
				lf.fold(c.q, c.m, c.n, c.o, c.x, c.y, c.qo, c.qx, c.qy, c.px, c.py, got, fx, fy)
			} else {
				lf.got(c.m, c.n, c.o, c.x, c.y, c.po, c.px, c.py, lf.so, lf.sx, lf.sy, got, fx, fy)
			}
			if i, ok := sameBits(got, want); !ok {
				name := lf.name
				if folded {
					name += " fold"
				}
				t.Fatalf("%s %+v: out[%d] = %v (%#x), Go loop %v (%#x)", name, c, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestContractionChecksBounds shows Run stops a block that would reach
// past an operand's data with Go's bounds panic before it writes anything:
// the check the SSE2 kernels rely on. The blocks run a folded held leaf
// (out[j] += Σ_k,l x[k,l,j]·y[l,k]) and an axpy leaf (out[i,j] += x[i,j]·y[i]).
func TestContractionChecksBounds(t *testing.T) {
	blocks := []struct {
		name   string
		free   []bool
		ext    []int
		stride []int // operand-major
	}{
		{"held", []bool{false, false, true}, []int{3, 5, 11}, []int{
			0, 0, 1, // out[j]
			55, 11, 1, // x[k,l,j]
			1, 3, 0, // y[l,k]
		}},
		{"axpy", []bool{true, true}, []int{5, 9}, []int{
			9, 1, // out[i,j]
			9, 1, // x[i,j]
			1, 0, // y[i]
		}},
	}
	for _, bc := range blocks {
		for short := range 3 {
			t.Run(fmt.Sprintf("%s/operand%d", bc.name, short), func(t *testing.T) {
				c := NewContraction(bc.free, 2)
				b := c.NewBlock()
				copy(b.Ext, bc.ext)
				copy(b.Stride, bc.stride)
				nd := len(bc.ext)
				for r := range b.Data {
					n := 1
					for d, e := range bc.ext {
						n += (e - 1) * bc.stride[r*nd+d]
					}
					if r == short {
						n--
					}
					b.Data[r] = make([]float64, n)
				}
				defer func() {
					if recover() == nil {
						t.Fatalf("a block past operand %d's data ran without a panic", short)
					}
					for i, v := range b.Data[0] {
						if v != 0 {
							t.Fatalf("out[%d] = %v: the block ran before the check", i, v)
						}
					}
				}()
				for r := 1; r < 3; r++ {
					for i := range b.Data[r] {
						b.Data[r][i] = 1
					}
				}
				c.Run(b, 1)
			})
		}
	}
}

// TestContractionZeroExtentIsNoOp runs blocks with an extent of 0: they
// have no points, so Run must leave the output as it is, on one worker
// and split, in the two-factor nest and in the N-factor one.
func TestContractionZeroExtentIsNoOp(t *testing.T) {
	blocks := []struct {
		name    string
		free    []bool
		factors int
		ext     []int
		stride  []int // operand-major
	}{
		// out[i] += x[i,k]·y[k]
		{"contracted", []bool{true, false}, 2, []int{3, 0}, []int{1, 0, 2, 1, 0, 1}},
		{"free", []bool{true, false}, 2, []int{0, 2}, []int{1, 0, 2, 1, 0, 1}},
		// out[i] += x[i,k]
		{"one-factor", []bool{true, false}, 1, []int{3, 0}, []int{1, 0, 2, 1}},
	}
	for _, bc := range blocks {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", bc.name, workers), func(t *testing.T) {
				c := NewContraction(bc.free, bc.factors)
				b := c.NewBlock()
				copy(b.Ext, bc.ext)
				copy(b.Stride, bc.stride)
				if b.Points() != 0 {
					t.Fatalf("Points() = %d, want 0", b.Points())
				}
				b.Data[0] = make([]float64, 3)
				for r := 1; r < len(b.Data); r++ {
					b.Data[r] = []float64{1, 1, 1, 1, 1, 1, 1, 1}
				}
				c.Run(b, workers)
				for i, v := range b.Data[0] {
					if v != 0 {
						t.Fatalf("out[%d] = %v: a block with no points wrote its output", i, v)
					}
				}
			})
		}
	}
}
