// AVX2+FMA kernels for the complex GEMM engine (gemm.go) and the complex
// AXPY under the naive product (gemm.go), the LU factorization and the
// triangular solves (lu.go).
//
// GEMM micro-kernels. Complex multiply-accumulate, two complex128 per ymm
// register: for each scalar a = ar + i·ai of the left operand and a packed
// vector b,
//
//	c += a·b  =  (c.re + ar·b.re − ai·b.im,  c.im + ar·b.im + ai·b.re)
//
// which is two FMAs per ymm: one with ar broadcast against b, one with
// (−ai, ai, −ai, ai) against the lane-swapped b. The sign alternation is a
// single VXORPD with signflip<> after broadcasting ai. Every kernel gives
// each output element the same sequence — a zeroed accumulator, per k
// fma(ar, b) then fma(±ai, b̃), then one add of the old C when
// accumulating — so a tile's values do not depend on which kernel (4×4,
// 2×4 or 1×4) computed it. The 4×4 kernel exists for its eight independent
// accumulators: each accumulator's two FMAs per k step are a dependent
// chain, and four chains (2×4) cannot keep two FMA ports busy.
//
// AXPY. y[j] ± m·x[j] is computed without FMA, as Go's complex128 `*`
// and `+`/`-` round it: mr·x and mi·x̃ (x lane-swapped) are each rounded,
// VADDSUBPD forms (mr·xr − mi·xi, mr·xi + mi·xr), and one VADDPD/VSUBPD
// applies it to y. The result is bitwise the scalar loop's.

#include "textflag.h"

DATA signflip<>+0(SB)/8, $0x8000000000000000
DATA signflip<>+8(SB)/8, $0x0000000000000000
DATA signflip<>+16(SB)/8, $0x8000000000000000
DATA signflip<>+24(SB)/8, $0x0000000000000000
GLOBL signflip<>(SB), RODATA|NOPTR, $32

// func gemmKernel4x4(a, bp, o *complex128, lda, ldo, kc int, acc bool)
//
// Registers: Y0–Y7 accumulators (row r in Y(2r), Y(2r+1)), Y8/Y9 b,
// Y10/Y11 lane-swapped b, Y12 ar, Y13 ±ai, Y14 the sign mask.
TEXT ·gemmKernel4x4(SB), NOSPLIT, $0-49
	MOVQ a+0(FP), AX
	MOVQ bp+8(FP), CX
	MOVQ o+16(FP), DI
	MOVQ lda+24(FP), R8
	MOVQ ldo+32(FP), R9
	MOVQ kc+40(FP), DX
	SHLQ $4, R8                // row strides in bytes
	SHLQ $4, R9
	LEAQ (AX)(R8*2), BX        // row 2 of A
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VMOVUPD signflip<>(SB), Y14

loop4:
	VMOVUPD (CX), Y8           // b: columns 0,1
	VMOVUPD 32(CX), Y9         // b: columns 2,3
	VPERMILPD $0x5, Y8, Y10    // lane-swapped b
	VPERMILPD $0x5, Y9, Y11
	VBROADCASTSD (AX), Y12     // row 0
	VBROADCASTSD 8(AX), Y13
	VXORPD Y14, Y13, Y13
	VFMADD231PD Y8, Y12, Y0
	VFMADD231PD Y9, Y12, Y1
	VFMADD231PD Y10, Y13, Y0
	VFMADD231PD Y11, Y13, Y1
	VBROADCASTSD (AX)(R8*1), Y12  // row 1
	VBROADCASTSD 8(AX)(R8*1), Y13
	VXORPD Y14, Y13, Y13
	VFMADD231PD Y8, Y12, Y2
	VFMADD231PD Y9, Y12, Y3
	VFMADD231PD Y10, Y13, Y2
	VFMADD231PD Y11, Y13, Y3
	VBROADCASTSD (BX), Y12     // row 2
	VBROADCASTSD 8(BX), Y13
	VXORPD Y14, Y13, Y13
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5
	VFMADD231PD Y10, Y13, Y4
	VFMADD231PD Y11, Y13, Y5
	VBROADCASTSD (BX)(R8*1), Y12  // row 3
	VBROADCASTSD 8(BX)(R8*1), Y13
	VXORPD Y14, Y13, Y13
	VFMADD231PD Y8, Y12, Y6
	VFMADD231PD Y9, Y12, Y7
	VFMADD231PD Y10, Y13, Y6
	VFMADD231PD Y11, Y13, Y7
	ADDQ $64, CX
	ADDQ $16, AX
	ADDQ $16, BX
	DECQ DX
	JNZ  loop4

	LEAQ (DI)(R9*2), SI        // row 2 of the output
	MOVBLZX acc+48(FP), R10
	TESTL R10, R10
	JZ    store4
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD (DI)(R9*1), Y2, Y2
	VADDPD 32(DI)(R9*1), Y3, Y3
	VADDPD (SI), Y4, Y4
	VADDPD 32(SI), Y5, Y5
	VADDPD (SI)(R9*1), Y6, Y6
	VADDPD 32(SI)(R9*1), Y7, Y7

store4:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R9*1)
	VMOVUPD Y3, 32(DI)(R9*1)
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, 32(SI)
	VMOVUPD Y6, (SI)(R9*1)
	VMOVUPD Y7, 32(SI)(R9*1)
	VZEROUPPER
	RET

// func gemmKernel2x4(a0, a1, bp, o0, o1 *complex128, kc int, acc bool)
TEXT ·gemmKernel2x4(SB), NOSPLIT, $0-49
	MOVQ a0+0(FP), AX
	MOVQ a1+8(FP), BX
	MOVQ bp+16(FP), CX
	MOVQ o0+24(FP), DI
	MOVQ o1+32(FP), SI
	MOVQ kc+40(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VMOVUPD signflip<>(SB), Y10

loop:
	VMOVUPD (CX), Y4           // b: columns 0,1
	VMOVUPD 32(CX), Y5         // b: columns 2,3
	VPERMILPD $0x5, Y4, Y6     // lane-swapped b
	VPERMILPD $0x5, Y5, Y7
	VBROADCASTSD (AX), Y8      // ar (row 0)
	VBROADCASTSD 8(AX), Y9     // ai (row 0)
	VXORPD Y10, Y9, Y9         // (−ai, ai, −ai, ai)
	VFMADD231PD Y4, Y8, Y0
	VFMADD231PD Y5, Y8, Y1
	VFMADD231PD Y6, Y9, Y0
	VFMADD231PD Y7, Y9, Y1
	VBROADCASTSD (BX), Y8      // ar (row 1)
	VBROADCASTSD 8(BX), Y9     // ai (row 1)
	VXORPD Y10, Y9, Y9
	VFMADD231PD Y4, Y8, Y2
	VFMADD231PD Y5, Y8, Y3
	VFMADD231PD Y6, Y9, Y2
	VFMADD231PD Y7, Y9, Y3
	ADDQ $64, CX
	ADDQ $16, AX
	ADDQ $16, BX
	DECQ DX
	JNZ  loop

	MOVBLZX acc+48(FP), R8
	TESTL R8, R8
	JZ    store
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD (SI), Y2, Y2
	VADDPD 32(SI), Y3, Y3

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, 32(SI)
	VZEROUPPER
	RET

// func gemmKernel1x4(a0, bp, o0 *complex128, kc int, acc bool)
TEXT ·gemmKernel1x4(SB), NOSPLIT, $0-33
	MOVQ a0+0(FP), AX
	MOVQ bp+8(FP), CX
	MOVQ o0+16(FP), DI
	MOVQ kc+24(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VMOVUPD signflip<>(SB), Y10

loop1:
	VMOVUPD (CX), Y4
	VMOVUPD 32(CX), Y5
	VPERMILPD $0x5, Y4, Y6
	VPERMILPD $0x5, Y5, Y7
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	VXORPD Y10, Y9, Y9
	VFMADD231PD Y4, Y8, Y0
	VFMADD231PD Y5, Y8, Y1
	VFMADD231PD Y6, Y9, Y0
	VFMADD231PD Y7, Y9, Y1
	ADDQ $64, CX
	ADDQ $16, AX
	DECQ DX
	JNZ  loop1

	MOVBLZX acc+32(FP), R8
	TESTL R8, R8
	JZ    store1
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1

store1:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// AXPY_STEP sets y ← y op m·x for the complexes at off(DI) and off(SI),
// two per ymm or one per xmm: mr and mi hold the broadcast parts of m, xv,
// tv and yv are scratch of the same width. VPERMILPD $0x5 swaps each
// complex's parts in either width.
#define AXPY_STEP(op, mr, mi, xv, tv, yv, off) \
	VMOVUPD off(SI), xv; \
	VPERMILPD $0x5, xv, tv; \
	VMULPD mr, xv, xv; \
	VMULPD mi, tv, tv; \
	VADDSUBPD tv, xv, xv; \
	VMOVUPD off(DI), yv; \
	op xv, yv, yv; \
	VMOVUPD yv, off(DI)

// AXPY_STEP4 is two ymm AXPY_STEPs with their instructions interleaved, for
// the four-complex main loop.
#define AXPY_STEP4(op) \
	VMOVUPD (SI), Y2; \
	VMOVUPD 32(SI), Y3; \
	VPERMILPD $0x5, Y2, Y4; \
	VPERMILPD $0x5, Y3, Y5; \
	VMULPD Y0, Y2, Y2; \
	VMULPD Y0, Y3, Y3; \
	VMULPD Y1, Y4, Y4; \
	VMULPD Y1, Y5, Y5; \
	VADDSUBPD Y4, Y2, Y2; \
	VADDSUBPD Y5, Y3, Y3; \
	VMOVUPD (DI), Y6; \
	VMOVUPD 32(DI), Y7; \
	op Y2, Y6, Y6; \
	op Y3, Y7, Y7; \
	VMOVUPD Y6, (DI); \
	VMOVUPD Y7, 32(DI)

// func caxpySub(y, x *complex128, mr, mi float64, n int)
//
// y[j] −= (mr + i·mi)·x[j] for j < n: four complexes per iteration, then
// a two- and a one-complex tail.
TEXT ·caxpySub(SB), NOSPLIT, $0-40
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSD mr+16(FP), Y0
	VBROADCASTSD mi+24(FP), Y1
	MOVQ n+32(FP), CX
	CMPQ CX, $4
	JLT  tail2

loop4:
	AXPY_STEP4(VSUBPD)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  loop4

tail2:
	CMPQ CX, $2
	JLT  tail1
	AXPY_STEP(VSUBPD, Y0, Y1, Y2, Y4, Y6, 0)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $2, CX

tail1:
	TESTQ CX, CX
	JZ    done
	AXPY_STEP(VSUBPD, X0, X1, X2, X4, X6, 0)

done:
	VZEROUPPER
	RET

// func caxpyAdd(y, x *complex128, mr, mi float64, n int)
//
// y[j] += (mr + i·mi)·x[j] for j < n: four complexes per iteration, then
// a two- and a one-complex tail.
TEXT ·caxpyAdd(SB), NOSPLIT, $0-40
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSD mr+16(FP), Y0
	VBROADCASTSD mi+24(FP), Y1
	MOVQ n+32(FP), CX
	CMPQ CX, $4
	JLT  tail2

loop4:
	AXPY_STEP4(VADDPD)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  loop4

tail2:
	CMPQ CX, $2
	JLT  tail1
	AXPY_STEP(VADDPD, Y0, Y1, Y2, Y4, Y6, 0)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $2, CX

tail1:
	TESTQ CX, CX
	JZ    done
	AXPY_STEP(VADDPD, X0, X1, X2, X4, X6, 0)

done:
	VZEROUPPER
	RET

// func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
