//go:build !race

#include "textflag.h"

// The four passes of BlockTri.SolveSegN (blocktri.go): 8- and 4-wide on
// AVX2, 2-wide on SSE2 and a scalar (1-wide) pass on SSE2's scalar
// instructions. Each lane is one column: a row loads its right-hand side,
// then per entry broadcasts v, multiplies it by x[c] (VMULPD, MULPD, MULSD)
// and subtracts the product (VSUBPD, SUBPD, SUBSD), and finally divides by
// the broadcast diagonal (VDIVPD, DIVPD, DIVSD). No FMA and no reciprocal:
// every lane does the Go body's multiply, subtract and divide in the same
// order, so the results are its bits.
//
// Nothing here trusts the layout. The row offset r·n of a row is checked
// against both x and b, the window [ptr[k], ptr[k+1]) against col, and the
// column offset c·n of an entry against x, all as unsigned values so that a
// negative index fails too; an overflowing product fails as well. The first
// one out of range returns false before anything is read or written through
// it. The dispatcher gives ptr one more element than row, diag as many as
// row, and val as many as col.
//
// Registers: DI x, SI b, R8 the last row offset whose w columns fit in both,
// R9 the last column offset that fits in x, R10 row, R12 ptr, R13 col,
// R14 val, R15 len(col), CX the position k, DX the entry index, BX the end
// of the row's entries, AX the row offset, R11 an entry's column offset or
// the diagonal's address. BP is left alone.

// LOAD sets up the arguments and returns true at once for an empty segment,
// or false when x or b is shorter than w.
#define LOAD(w) \
	MOVQ x_base+0(FP), DI; \
	MOVQ x_len+8(FP), R9; \
	MOVQ b_base+24(FP), SI; \
	MOVQ b_len+32(FP), R8; \
	MOVQ row_base+48(FP), R10; \
	MOVQ ptr_base+72(FP), R12; \
	MOVQ col_base+96(FP), R13; \
	MOVQ col_len+104(FP), R15; \
	MOVQ val_base+120(FP), R14; \
	XORQ CX, CX; \
	CMPQ CX, row_len+56(FP); \
	JEQ done; \
	CMPQ R9, R8; \
	CMOVQLT R9, R8; \
	SUBQ $w, R8; \
	JS bad; \
	SUBQ $w, R9; \
	JS bad

// OFFSET sets reg to idx·n and fails unless 0 <= idx·n <= lim.
#define OFFSET(reg, lim) \
	IMULQ n+168(FP), reg; \
	JO bad; \
	CMPQ reg, lim; \
	JHI bad

// UNIT fails unless 0 <= reg <= lim: OFFSET at n = 1, without the multiply.
#define UNIT(reg, lim) \
	CMPQ reg, lim; \
	JHI bad

// WINDOW sets DX and BX to the entries' window of position k = CX, checked
// 0 <= DX <= BX <= len(col).
#define WINDOW \
	MOVQ (R12)(CX*8), DX; \
	MOVQ 8(R12)(CX*8), BX; \
	CMPQ BX, R15; \
	JHI bad; \
	CMPQ DX, BX; \
	JHI bad

// ROW starts position k = CX: AX = its row offset, DX and BX its entries'
// window. UROW is ROW at n = 1.
#define ROW \
	MOVLQSX (R10)(CX*4), AX; \
	OFFSET(AX, R8); \
	WINDOW

#define UROW \
	MOVLQSX (R10)(CX*4), AX; \
	UNIT(AX, R8); \
	WINDOW

// COLUMN sets R11 to the column offset of entry DX. UCOLUMN is COLUMN at
// n = 1.
#define COLUMN \
	MOVLQSX (R13)(DX*4), R11; \
	OFFSET(R11, R9)

#define UCOLUMN \
	MOVLQSX (R13)(DX*4), R11; \
	UNIT(R11, R9)

// ENTRY starts entry DX: R11 = its column offset, Y2 = its value broadcast.
#define ENTRY \
	COLUMN; \
	VBROADCASTSD (R14)(DX*8), Y2

// DIAG broadcasts the diagonal of position k into Y2.
#define DIAG \
	MOVQ diag_base+144(FP), R11; \
	VBROADCASTSD (R11)(CX*8), Y2

// func trsv8AVX2(x, b []float64, row []int32, ptr []int64, col []int32, val, diag []float64, n int) (ok bool)
TEXT ·trsv8AVX2(SB), NOSPLIT, $0-177
	LOAD(8)

row:
	ROW
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	CMPQ DX, BX
	JEQ div

entry:
	ENTRY
	VMULPD (DI)(R11*8), Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD 32(DI)(R11*8), Y2, Y4
	VSUBPD Y4, Y1, Y1
	INCQ DX
	CMPQ DX, BX
	JNE entry

div:
	DIAG
	VDIVPD Y2, Y0, Y0
	VDIVPD Y2, Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	INCQ CX
	CMPQ CX, row_len+56(FP)
	JNE row

done:
	VZEROUPPER
	MOVB $1, ok+176(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+176(FP)
	RET

// func trsv4AVX2(x, b []float64, row []int32, ptr []int64, col []int32, val, diag []float64, n int) (ok bool)
TEXT ·trsv4AVX2(SB), NOSPLIT, $0-177
	LOAD(4)

row:
	ROW
	VMOVUPD (SI)(AX*8), Y0
	CMPQ DX, BX
	JEQ div

entry:
	ENTRY
	VMULPD (DI)(R11*8), Y2, Y3
	VSUBPD Y3, Y0, Y0
	INCQ DX
	CMPQ DX, BX
	JNE entry

div:
	DIAG
	VDIVPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	INCQ CX
	CMPQ CX, row_len+56(FP)
	JNE row

done:
	VZEROUPPER
	MOVB $1, ok+176(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ok+176(FP)
	RET

// func trsv2SSE2(x, b []float64, row []int32, ptr []int64, col []int32, val, diag []float64, n int) (ok bool)
TEXT ·trsv2SSE2(SB), NOSPLIT, $0-177
	LOAD(2)

row:
	ROW
	MOVUPD (SI)(AX*8), X0
	CMPQ DX, BX
	JEQ div

entry:
	COLUMN
	MOVSD (R14)(DX*8), X2
	UNPCKLPD X2, X2
	MOVUPD (DI)(R11*8), X3
	MULPD X2, X3
	SUBPD X3, X0
	INCQ DX
	CMPQ DX, BX
	JNE entry

div:
	MOVQ diag_base+144(FP), R11
	MOVSD (R11)(CX*8), X2
	UNPCKLPD X2, X2
	DIVPD X2, X0
	MOVUPD X0, (DI)(AX*8)
	INCQ CX
	CMPQ CX, row_len+56(FP)
	JNE row

done:
	MOVB $1, ok+176(FP)
	RET

bad:
	MOVB $0, ok+176(FP)
	RET

// func trsv1SSE2(x, b []float64, row []int32, ptr []int64, col []int32, val, diag []float64, n int) (ok bool)
TEXT ·trsv1SSE2(SB), NOSPLIT, $0-177
	LOAD(1)
	CMPQ n+168(FP), $1
	JEQ urow

row:
	ROW
	MOVSD (SI)(AX*8), X0
	CMPQ DX, BX
	JEQ div

entry:
	COLUMN
	MOVSD (R14)(DX*8), X2
	MULSD (DI)(R11*8), X2
	SUBSD X2, X0
	INCQ DX
	CMPQ DX, BX
	JNE entry

div:
	MOVQ diag_base+144(FP), R11
	DIVSD (R11)(CX*8), X0
	MOVSD X0, (DI)(AX*8)
	INCQ CX
	CMPQ CX, row_len+56(FP)
	JNE row
	JMP done

	// n = 1, the k = 1 solve: the same loop, with every offset an index.
urow:
	UROW
	MOVSD (SI)(AX*8), X0
	CMPQ DX, BX
	JEQ udiv

uentry:
	UCOLUMN
	MOVSD (R14)(DX*8), X2
	MULSD (DI)(R11*8), X2
	SUBSD X2, X0
	INCQ DX
	CMPQ DX, BX
	JNE uentry

udiv:
	MOVQ diag_base+144(FP), R11
	DIVSD (R11)(CX*8), X0
	MOVSD X0, (DI)(AX*8)
	INCQ CX
	CMPQ CX, row_len+56(FP)
	JNE urow

done:
	MOVB $1, ok+176(FP)
	RET

bad:
	MOVB $0, ok+176(FP)
	RET
