package tensor

// On amd64 the unit-stride leaves run SSE2 kernels (leaf_amd64.s). Each of
// a kernel's two float64 lanes does what the Go loops' MULSD and ADDSD do:
// the product is rounded, then added to its own output's accumulator, in
// the same contracted order, with no fused multiply-add and MXCSR left
// alone, so outputs are the Go loops' bits. SSE2 is in amd64's baseline:
// nothing is dispatched at run time. Columns past the last multiple of four
// (held) or two (axpy) run the Go loops.
//
// The kernels read and write through raw pointers, inside the bounds
// Contraction.run checked for the whole block.

// heldSSE2 runs q trips, advancing out, v and b by qo, qv and qb elements
// after each, of n columns (a multiple of four) taken eight and then four
// at a time and held in registers over
//
//	out[j] += v[i·pv + j] · b[i·pb]   for i = 0, …, m-1 in turn.
//
//go:noescape
func heldSSE2(out, v, b *float64, q, m, n, qo, qv, qb, pv, pb int)

// axpySSE2 runs m rows, advancing out, v and b by po, pv and pb elements
// after each, of out[k] += v[k] · b[0] over n columns (a multiple of two),
// two at a time.
//
//go:noescape
func axpySSE2(out, v, b *float64, m, n, po, pv, pb int)

// heldFirst is heldFirstGo on the SSE2 kernel.
func heldFirst(m, n, o, x, y, _, px, py, _, _, _ int, out, fx, fy []float64) {
	heldFirstFold(1, m, n, o, x, y, 0, 0, 0, px, py, out, fx, fy)
}

// heldSecond is heldSecondGo on the SSE2 kernel.
func heldSecond(m, n, o, x, y, _, px, py, _, _, _ int, out, fx, fy []float64) {
	heldSecondFold(1, m, n, o, x, y, 0, 0, 0, px, py, out, fx, fy)
}

// heldFirstFold runs heldFirst for q trips of the plain loop around it.
func heldFirstFold(q, m, n, o, x, y, qo, qx, qy, px, py int, out, fx, fy []float64) {
	w := n &^ 3
	if w > 0 {
		heldSSE2(&out[o], &fy[y], &fx[x], q, m, w, qo, qy, qx, py, px)
	}
	for ; w < n && q > 0; q-- {
		heldFirstGo(m, n-w, o+w, x, y+w, 0, px, py, 0, 0, 0, out, fx, fy)
		o, x, y = o+qo, x+qx, y+qy
	}
}

// heldSecondFold runs heldSecond for q trips of the plain loop around it.
func heldSecondFold(q, m, n, o, x, y, qo, qx, qy, px, py int, out, fx, fy []float64) {
	w := n &^ 3
	if w > 0 {
		heldSSE2(&out[o], &fx[x], &fy[y], q, m, w, qo, qx, qy, px, py)
	}
	for ; w < n && q > 0; q-- {
		heldSecondGo(m, n-w, o+w, x+w, y, 0, px, py, 0, 0, 0, out, fx, fy)
		o, x, y = o+qo, x+qx, y+qy
	}
}

// axpyFirst is axpyFirstGo on the SSE2 kernel.
func axpyFirst(m, n, o, x, y, po, px, py, _, _, _ int, out, fx, fy []float64) {
	w := n &^ 1
	if w > 0 {
		axpySSE2(&out[o], &fy[y], &fx[x], m, w, po, py, px)
	}
	if w < n {
		axpyFirstGo(m, n-w, o+w, x, y+w, po, px, py, 0, 0, 0, out, fx, fy)
	}
}

// axpySecond is axpySecondGo on the SSE2 kernel.
func axpySecond(m, n, o, x, y, po, px, py, _, _, _ int, out, fx, fy []float64) {
	w := n &^ 1
	if w > 0 {
		axpySSE2(&out[o], &fx[x], &fy[y], m, w, po, px, py)
	}
	if w < n {
		axpySecondGo(m, n-w, o+w, x+w, y, po, px, py, 0, 0, 0, out, fx, fy)
	}
}
