//go:build !race

#include "textflag.h"

// AVX2 bodies of direct8/direct4/trans8/trans4 (rowrun.go). Each YMM lane
// is one output column, and each lane gets VMULPD then VADDPD (no FMA), the
// multiply and the add of the Go body, in the same order: the results are
// the Go bodies' bits.
//
// Nothing here trusts the tile. The row offset r·n of a run and the column
// offset c·n of an entry are each checked, as unsigned values so that a
// negative index fails too, against the last offset whose w columns fit in
// the slice; an overflowing product fails as well. The first offset out of
// range returns false before anything is read or written through it.
//
// Registers: DI ys, SI xs, R8 and R9 their last in-range offsets, R10 v,
// R11 len(v), R12 ri, R13 ci, CX the entry index p, AX the run's row r.

// LOAD sets up the arguments and returns true at once for an empty tile, or
// false when a slice is shorter than w.
#define LOAD(w) \
	MOVQ ys_base+0(FP), DI; \
	MOVQ ys_len+8(FP), R8; \
	MOVQ xs_base+24(FP), SI; \
	MOVQ xs_len+32(FP), R9; \
	MOVQ v_base+48(FP), R10; \
	MOVQ v_len+56(FP), R11; \
	MOVQ ri_base+72(FP), R12; \
	MOVQ ci_base+96(FP), R13; \
	XORQ CX, CX; \
	TESTQ R11, R11; \
	JZ done; \
	SUBQ $w, R8; \
	JS bad; \
	SUBQ $w, R9; \
	JS bad

// OFFSET sets reg to idx·n and fails unless 0 <= idx·n <= lim.
#define OFFSET(reg, lim) \
	IMULQ n+120(FP), reg; \
	JO bad; \
	CMPQ reg, lim; \
	JHI bad

// The transposed bodies keep the run's x row in registers and scatter into
// ys. BX holds the column skipped in this run: r on a diagonal tile, -1
// elsewhere (skipCol).

// RUNROW starts a run: AX = r, BX = the skipped column, DX = r·n checked
// against xs.
#define RUNROW \
	MOVLQSX (R12)(CX*4), AX; \
	MOVQ $-1, BX; \
	CMPB diag+128(FP), $0; \
	CMOVQNE AX, BX; \
	MOVQ AX, DX; \
	OFFSET(DX, R9)

// NEXT advances p and continues the run, starts the next one, or finishes.
#define NEXT \
	INCQ CX; \
	CMPQ CX, R11; \
	JEQ done; \
	CMPL AX, (R12)(CX*4); \
	JEQ entry; \
	JMP run

// func direct8AVX2(ys, xs, v []float64, ri, ci []int32, n int) (ok bool)
TEXT ·direct8AVX2(SB), NOSPLIT, $0-129
	LOAD(8)

run:
	MOVLQSX (R12)(CX*4), AX
	MOVQ AX, BX
	OFFSET(BX, R8)
	VMOVUPD (DI)(BX*8), Y0
	VMOVUPD 32(DI)(BX*8), Y1

entry:
	MOVLQSX (R13)(CX*4), DX
	OFFSET(DX, R9)
	VBROADCASTSD (R10)(CX*8), Y2
	VMULPD (SI)(DX*8), Y2, Y3
	VADDPD Y3, Y0, Y0
	VMULPD 32(SI)(DX*8), Y2, Y4
	VADDPD Y4, Y1, Y1
	INCQ CX
	CMPQ CX, R11
	JEQ last
	CMPL AX, (R12)(CX*4)
	JEQ entry
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	JMP run

last:
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)

done:
	VZEROUPPER
	MOVB $1, ok+128(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+128(FP)
	RET

// func direct4AVX2(ys, xs, v []float64, ri, ci []int32, n int) (ok bool)
TEXT ·direct4AVX2(SB), NOSPLIT, $0-129
	LOAD(4)

run:
	MOVLQSX (R12)(CX*4), AX
	MOVQ AX, BX
	OFFSET(BX, R8)
	VMOVUPD (DI)(BX*8), Y0

entry:
	MOVLQSX (R13)(CX*4), DX
	OFFSET(DX, R9)
	VBROADCASTSD (R10)(CX*8), Y2
	VMULPD (SI)(DX*8), Y2, Y3
	VADDPD Y3, Y0, Y0
	INCQ CX
	CMPQ CX, R11
	JEQ last
	CMPL AX, (R12)(CX*4)
	JEQ entry
	VMOVUPD Y0, (DI)(BX*8)
	JMP run

last:
	VMOVUPD Y0, (DI)(BX*8)

done:
	VZEROUPPER
	MOVB $1, ok+128(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+128(FP)
	RET

// func trans8AVX2(ys, xs, v []float64, ri, ci []int32, n int, diag bool) (ok bool)
TEXT ·trans8AVX2(SB), NOSPLIT, $0-137
	LOAD(8)

run:
	RUNROW
	VMOVUPD (SI)(DX*8), Y0
	VMOVUPD 32(SI)(DX*8), Y1

entry:
	MOVLQSX (R13)(CX*4), DX
	CMPQ DX, BX
	JEQ next
	OFFSET(DX, R8)
	VBROADCASTSD (R10)(CX*8), Y2
	VMULPD Y0, Y2, Y3
	VMOVUPD (DI)(DX*8), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, (DI)(DX*8)
	VMULPD Y1, Y2, Y3
	VMOVUPD 32(DI)(DX*8), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, 32(DI)(DX*8)

next:
	NEXT

done:
	VZEROUPPER
	MOVB $1, ok+136(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+136(FP)
	RET

// func trans4AVX2(ys, xs, v []float64, ri, ci []int32, n int, diag bool) (ok bool)
TEXT ·trans4AVX2(SB), NOSPLIT, $0-137
	LOAD(4)

run:
	RUNROW
	VMOVUPD (SI)(DX*8), Y0

entry:
	MOVLQSX (R13)(CX*4), DX
	CMPQ DX, BX
	JEQ next
	OFFSET(DX, R8)
	VBROADCASTSD (R10)(CX*8), Y2
	VMULPD Y0, Y2, Y3
	VMOVUPD (DI)(DX*8), Y4
	VADDPD Y3, Y4, Y4
	VMOVUPD Y4, (DI)(DX*8)

next:
	NEXT

done:
	VZEROUPPER
	MOVB $1, ok+136(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+136(FP)
	RET
