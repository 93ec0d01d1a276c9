package tensor

// The unit-stride leaves of a two-factor nest as Go loops. Every
// architecture without assembly kernels runs them (leaf_other.go), and on
// amd64 they are the reference the SSE2 kernels are tested against bit
// for bit (leaf_test.go).

// axpyFirstGo runs m axpys along unit-stride output and second factor, the
// first factor fixed (the dgemm inner loop).
func axpyFirstGo(m, n, o, x, y, po, px, py, _, _, _ int, out, fx, fy []float64) {
	for ; m > 0; m-- {
		xv, dst := fx[x], out[o:o+n]
		src := fy[y : y+len(dst)]
		for k := range dst {
			dst[k] += float64(xv * src[k])
		}
		o, x, y = o+po, x+px, y+py
	}
}

// axpySecondGo runs m axpys along unit-stride output and first factor, the
// second factor fixed.
func axpySecondGo(m, n, o, x, y, po, px, py, _, _, _ int, out, fx, fy []float64) {
	for ; m > 0; m-- {
		yv, dst := fy[y], out[o:o+n]
		src := fx[x : x+len(dst)]
		for k := range dst {
			dst[k] += float64(src[k] * yv)
		}
		o, x, y = o+po, x+px, y+py
	}
}

// heldFirstGo is held with the output and the second factor at unit stride
// along the innermost loop and the first factor fixed.
func heldFirstGo(m, n, o, x, y, _, px, py, _, _, _ int, out, fx, fy []float64) {
	j := 0
	for ; j+4 <= n; j += 4 {
		d := out[o+j : o+j+4 : o+j+4]
		a0, a1, a2, a3 := d[0], d[1], d[2], d[3]
		for i, xi, yi := 0, x, y+j; i < m; i++ {
			xv, s := fx[xi], fy[yi:yi+4:yi+4]
			a0 += float64(xv * s[0])
			a1 += float64(xv * s[1])
			a2 += float64(xv * s[2])
			a3 += float64(xv * s[3])
			xi, yi = xi+px, yi+py
		}
		d[0], d[1], d[2], d[3] = a0, a1, a2, a3
	}
	if j < n {
		quads(n-j, m, o+j, x, y+j, 1, 0, 1, px, py, out, fx, fy)
	}
}

// heldSecondGo is held with the output and the first factor at unit stride
// along the innermost loop and the second factor fixed.
func heldSecondGo(m, n, o, x, y, _, px, py, _, _, _ int, out, fx, fy []float64) {
	j := 0
	for ; j+4 <= n; j += 4 {
		d := out[o+j : o+j+4 : o+j+4]
		a0, a1, a2, a3 := d[0], d[1], d[2], d[3]
		for i, xi, yi := 0, x+j, y; i < m; i++ {
			s, yv := fx[xi:xi+4:xi+4], fy[yi]
			a0 += float64(s[0] * yv)
			a1 += float64(s[1] * yv)
			a2 += float64(s[2] * yv)
			a3 += float64(s[3] * yv)
			xi, yi = xi+px, yi+py
		}
		d[0], d[1], d[2], d[3] = a0, a1, a2, a3
	}
	if j < n {
		quads(n-j, m, o+j, x+j, y, 1, 1, 0, px, py, out, fx, fy)
	}
}
