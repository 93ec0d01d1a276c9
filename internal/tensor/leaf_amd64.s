#include "textflag.h"

// SSE2 leaves of the two-factor contraction nest (see leaf_amd64.go). Every
// lane rounds its product (MULPD) and then adds it to its own accumulator
// (ADDPD), as MULSD and ADDSD do in the Go loops. Memory operands are
// loaded with MOVUPD, so no operand needs 16-byte alignment.

// func heldSSE2(out, v, b *float64, q, m, n, qo, qv, qb, pv, pb int)
TEXT ·heldSSE2(SB), NOSPLIT, $0-88
	MOVQ out+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ q+24(FP), R8
	MOVQ pv+72(FP), R10
	SHLQ $3, R10
	MOVQ pb+80(FP), R11
	SHLQ $3, R11
	TESTQ R8, R8
	JLE  held_done
	CMPQ m+32(FP), $0
	JLE  held_done

held_trip:
	MOVQ n+40(FP), CX // columns left in this trip
	MOVQ DI, R12      // out at the current columns
	MOVQ SI, R13      // v at the current columns

held_eight:
	CMPQ CX, $8
	JLT  held_four
	MOVUPD (R12), X0
	MOVUPD 16(R12), X1
	MOVUPD 32(R12), X2
	MOVUPD 48(R12), X3
	MOVQ R13, AX
	MOVQ DX, BX
	MOVQ m+32(FP), R9

held_eight_loop:
	MOVSD    (BX), X8
	UNPCKLPD X8, X8
	MOVUPD   (AX), X4
	MOVUPD   16(AX), X5
	MOVUPD   32(AX), X6
	MOVUPD   48(AX), X7
	MULPD    X8, X4
	MULPD    X8, X5
	MULPD    X8, X6
	MULPD    X8, X7
	ADDPD    X4, X0
	ADDPD    X5, X1
	ADDPD    X6, X2
	ADDPD    X7, X3
	ADDQ     R10, AX
	ADDQ     R11, BX
	DECQ     R9
	JNZ      held_eight_loop
	MOVUPD   X0, (R12)
	MOVUPD   X1, 16(R12)
	MOVUPD   X2, 32(R12)
	MOVUPD   X3, 48(R12)
	ADDQ     $64, R12
	ADDQ     $64, R13
	SUBQ     $8, CX
	JMP      held_eight

held_four:
	TESTQ CX, CX
	JZ    held_next
	MOVUPD (R12), X0
	MOVUPD 16(R12), X1
	MOVQ   R13, AX
	MOVQ   DX, BX
	MOVQ   m+32(FP), R9

held_four_loop:
	MOVSD    (BX), X8
	UNPCKLPD X8, X8
	MOVUPD   (AX), X4
	MOVUPD   16(AX), X5
	MULPD    X8, X4
	MULPD    X8, X5
	ADDPD    X4, X0
	ADDPD    X5, X1
	ADDQ     R10, AX
	ADDQ     R11, BX
	DECQ     R9
	JNZ      held_four_loop
	MOVUPD   X0, (R12)
	MOVUPD   X1, 16(R12)

held_next:
	MOVQ qo+48(FP), AX
	LEAQ (DI)(AX*8), DI
	MOVQ qv+56(FP), AX
	LEAQ (SI)(AX*8), SI
	MOVQ qb+64(FP), AX
	LEAQ (DX)(AX*8), DX
	DECQ R8
	JNZ  held_trip

held_done:
	RET

// func axpySSE2(out, v, b *float64, m, n, po, pv, pb int)
TEXT ·axpySSE2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ po+40(FP), R10
	SHLQ $3, R10
	MOVQ pv+48(FP), R11
	SHLQ $3, R11
	MOVQ pb+56(FP), R12
	SHLQ $3, R12
	TESTQ R8, R8
	JLE  axpy_done

axpy_row:
	MOVSD    (DX), X0
	UNPCKLPD X0, X0
	MOVQ     R9, CX // columns left in this row
	XORQ     AX, AX // byte offset of the current columns

axpy_four:
	CMPQ   CX, $4
	JLT    axpy_two
	MOVUPD (SI)(AX*1), X1
	MOVUPD 16(SI)(AX*1), X2
	MULPD  X0, X1
	MULPD  X0, X2
	MOVUPD (DI)(AX*1), X3
	MOVUPD 16(DI)(AX*1), X4
	ADDPD  X1, X3
	ADDPD  X2, X4
	MOVUPD X3, (DI)(AX*1)
	MOVUPD X4, 16(DI)(AX*1)
	ADDQ   $32, AX
	SUBQ   $4, CX
	JMP    axpy_four

axpy_two:
	TESTQ  CX, CX
	JZ     axpy_next
	MOVUPD (SI)(AX*1), X1
	MULPD  X0, X1
	MOVUPD (DI)(AX*1), X3
	ADDPD  X1, X3
	MOVUPD X3, (DI)(AX*1)

axpy_next:
	ADDQ R10, DI
	ADDQ R11, SI
	ADDQ R12, DX
	DECQ R8
	JNZ  axpy_row

axpy_done:
	RET
