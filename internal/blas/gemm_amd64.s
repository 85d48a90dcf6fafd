//go:build !race

#include "textflag.h"

// The AVX2 register tile of gemmTiled and gemmTNTiled (dense.go). Each YMM
// lane is one column of C, and each lane gets VMULPD then VADDPD (no FMA)
// into a sum that starts at zero, for p ascending, then alpha and beta by
// storeScaled's branch: every element is the Go tiles' bits.
//
// Every address is derived from rows, k, n and the strides, which Gemm and
// GemmTN check against the slice lengths before calling.
//
// Registers: R8 C at the row group, R9 A at the row group, R10 B, R11 row
// groups left, R12 and BX the byte strides of one and three A rows, R13 the
// byte stride of one p step in A, DX the byte stride of a B or C row, AX the
// tile's first column in bytes; SI, DI and CX walk A, B and p in the k loop
// and C at the store. Y12 and Y13 hold alpha and beta.

// MUL8 adds A's broadcast element at mem times the B row in Y8:Y9 into
// acc0:acc1.
#define MUL8(mem, acc0, acc1) \
	VBROADCASTSD mem, Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, acc0, acc0; \
	VMULPD Y9, Y10, Y11; \
	VADDPD Y11, acc1, acc1

// MUL4 adds A's broadcast element at mem times the B row in Y8 into acc.
#define MUL4(mem, acc) \
	VBROADCASTSD mem, Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, acc, acc

// SET, ADD and SCALE store the sums in acc at mem by storeScaled's three
// branches: alpha·s; c + alpha·s; beta·c + alpha·s.
#define SET(acc, mem) \
	VMULPD acc, Y12, acc; \
	VMOVUPD acc, mem

#define ADD(acc, mem) \
	VMULPD acc, Y12, acc; \
	VMOVUPD mem, Y14; \
	VADDPD acc, Y14, Y14; \
	VMOVUPD Y14, mem

#define SCALE(acc, mem) \
	VMULPD acc, Y12, acc; \
	VMOVUPD mem, Y14; \
	VMULPD Y13, Y14, Y14; \
	VADDPD acc, Y14, Y14; \
	VMOVUPD Y14, mem

// STORE8 and STORE4 store a tile's four rows by one branch, from SI on.
#define STORE8(op) \
	op(Y0, (SI)); op(Y1, 32(SI)); ADDQ DX, SI; \
	op(Y2, (SI)); op(Y3, 32(SI)); ADDQ DX, SI; \
	op(Y4, (SI)); op(Y5, 32(SI)); ADDQ DX, SI; \
	op(Y6, (SI)); op(Y7, 32(SI))

#define STORE4(op) \
	op(Y0, (SI)); ADDQ DX, SI; \
	op(Y1, (SI)); ADDQ DX, SI; \
	op(Y2, (SI)); ADDQ DX, SI; \
	op(Y3, (SI))

// func gemmTile4(c, a, b []float64, rows, k, n, as, ap int, alpha, beta float64, mode int)
TEXT ·gemmTile4(SB), NOSPLIT, $0-136
	MOVQ c_base+0(FP), R8
	MOVQ a_base+24(FP), R9
	MOVQ b_base+48(FP), R10
	MOVQ rows+72(FP), R11
	SHRQ $2, R11
	JZ done
	MOVQ n+88(FP), DX
	SHLQ $3, DX
	MOVQ as+96(FP), R12
	SHLQ $3, R12
	LEAQ (R12)(R12*2), BX
	MOVQ ap+104(FP), R13
	SHLQ $3, R13
	VBROADCASTSD alpha+112(FP), Y12
	VBROADCASTSD beta+120(FP), Y13

group:
	XORQ AX, AX

col8:
	MOVQ n+88(FP), CX
	ANDQ $-8, CX
	SHLQ $3, CX
	CMPQ AX, CX
	JAE col4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R9, SI
	LEAQ (R10)(AX*1), DI
	MOVQ k+80(FP), CX
	TESTQ CX, CX
	JZ store8

loop8:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	MUL8((SI), Y0, Y1)
	MUL8((SI)(R12*1), Y2, Y3)
	MUL8((SI)(R12*2), Y4, Y5)
	MUL8((SI)(BX*1), Y6, Y7)
	ADDQ R13, SI
	ADDQ DX, DI
	DECQ CX
	JNZ loop8

store8:
	LEAQ (R8)(AX*1), SI
	MOVQ mode+128(FP), CX
	CMPQ CX, $1
	JEQ add8
	JGT scale8
	STORE8(SET)
	JMP next8

add8:
	STORE8(ADD)
	JMP next8

scale8:
	STORE8(SCALE)

next8:
	ADDQ $64, AX
	JMP col8

col4:
	MOVQ n+88(FP), CX
	ANDQ $-4, CX
	SHLQ $3, CX
	CMPQ AX, CX
	JAE nextgroup
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R9, SI
	LEAQ (R10)(AX*1), DI
	MOVQ k+80(FP), CX
	TESTQ CX, CX
	JZ store4

loop4:
	VMOVUPD (DI), Y8
	MUL4((SI), Y0)
	MUL4((SI)(R12*1), Y1)
	MUL4((SI)(R12*2), Y2)
	MUL4((SI)(BX*1), Y3)
	ADDQ R13, SI
	ADDQ DX, DI
	DECQ CX
	JNZ loop4

store4:
	LEAQ (R8)(AX*1), SI
	MOVQ mode+128(FP), CX
	CMPQ CX, $1
	JEQ add4
	JGT scale4
	STORE4(SET)
	JMP nextgroup

add4:
	STORE4(ADD)
	JMP nextgroup

scale4:
	STORE4(SCALE)

nextgroup:
	LEAQ (R8)(DX*4), R8
	LEAQ (R9)(R12*4), R9
	DECQ R11
	JNZ group

done:
	VZEROUPPER
	RET
