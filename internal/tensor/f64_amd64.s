//go:build amd64 && !race

// AVX float64 kernels for the training update and the f64 actor. Only
// reached when the CPUID check in f64_amd64.go passes; f64_amd64.go holds
// the dispatch and the Go tails, and the Go loops in tensor.go and
// fasttanh.go are the fallback and the reference.
//
// Every kernel rounds each lane exactly as the Go loop it replaces rounds
// the matching element: a product and a sum are two rounded instructions
// (VMULPD, VADDPD; never FMA), each output element owns one accumulator
// that adds its terms in the Go loop's order, and an accumulator starts
// where the Go loop's does (+0, or the destination's current value).

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	eaxArg+0(FP), AX
	MOVL	ecxArg+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL	CX, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	MOVL	DX, edx+4(FP)
	RET

// func axpy16(d, a *float64, as int, b *float64, ldb, n int)
// d[0:16] += a[kk*as] * b[kk*ldb : kk*ldb+16] for kk = 0..n-1 in order,
// skipping a term whose multiplier is ±0. VUCOMISD sets ZF for an equal and
// for an unordered pair, so a NaN multiplier (PF set) is added, as the Go
// loop's a != 0 adds it.
TEXT ·axpy16(SB), NOSPLIT, $0-48
	MOVQ	d+0(FP), DI
	MOVQ	a+8(FP), SI
	MOVQ	as+16(FP), R8
	SHLQ	$3, R8
	MOVQ	b+24(FP), DX
	MOVQ	ldb+32(FP), R9
	SHLQ	$3, R9
	MOVQ	n+40(FP), CX
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3
	VXORPD	X15, X15, X15
	TESTQ	CX, CX
	JEQ	a16store

a16loop:
	VUCOMISD	(SI), X15
	JEQ	a16zero

a16term:
	VBROADCASTSD	(SI), Y4
	VMULPD	(DX), Y4, Y5
	VADDPD	Y5, Y0, Y0
	VMULPD	32(DX), Y4, Y6
	VADDPD	Y6, Y1, Y1
	VMULPD	64(DX), Y4, Y7
	VADDPD	Y7, Y2, Y2
	VMULPD	96(DX), Y4, Y8
	VADDPD	Y8, Y3, Y3

a16next:
	ADDQ	R8, SI
	ADDQ	R9, DX
	DECQ	CX
	JNE	a16loop

a16store:
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VZEROUPPER
	RET

a16zero:
	JPS	a16term
	JMP	a16next

// func axpy4(d, a *float64, as int, b *float64, ldb, n int, mask *[4]int64)
// axpy16 for the lanes of d[0:4] whose mask element is negative. Masked
// loads and the masked store touch no other element, so a call may cover
// the last 1-3 columns of a row at the end of its slice, and never writes
// a neighbouring row another goroutine owns.
TEXT ·axpy4(SB), NOSPLIT, $0-56
	MOVQ	d+0(FP), DI
	MOVQ	a+8(FP), SI
	MOVQ	as+16(FP), R8
	SHLQ	$3, R8
	MOVQ	b+24(FP), DX
	MOVQ	ldb+32(FP), R9
	SHLQ	$3, R9
	MOVQ	n+40(FP), CX
	MOVQ	mask+48(FP), AX
	VMOVUPD	(AX), Y3
	VMASKMOVPD	(DI), Y3, Y0
	VXORPD	X15, X15, X15
	TESTQ	CX, CX
	JEQ	a4store

a4loop:
	VUCOMISD	(SI), X15
	JEQ	a4zero

a4term:
	VBROADCASTSD	(SI), Y4
	VMASKMOVPD	(DX), Y3, Y5
	VMULPD	Y5, Y4, Y5
	VADDPD	Y5, Y0, Y0

a4next:
	ADDQ	R8, SI
	ADDQ	R9, DX
	DECQ	CX
	JNE	a4loop

a4store:
	VMASKMOVPD	Y0, Y3, (DI)
	VZEROUPPER
	RET

a4zero:
	JPS	a4term
	JMP	a4next

// DOT4 adds one k quad of four weight rows (base, base+R8, base+2·R8,
// base+R9 = base+3·R8) times the broadcast x values in Y12..Y15 to acc.
// The 4×4 tile is transposed in registers: 128-bit halves of rows 0 and 2
// (1 and 3) are paired by VINSERTF128, and VUNPCKLPD/VUNPCKHPD then
// interleave them into columns, which are added one after another, so
// each lane's sum keeps ascending k.
#define DOT4(base, acc) \
	VMOVUPD	(base), X4; \
	VINSERTF128	$1, (base)(R8*2), Y4, Y4; \
	VMOVUPD	(base)(R8*1), X5; \
	VINSERTF128	$1, (base)(R9*1), Y5, Y5; \
	VMOVUPD	16(base), X6; \
	VINSERTF128	$1, 16(base)(R8*2), Y6, Y6; \
	VMOVUPD	16(base)(R8*1), X7; \
	VINSERTF128	$1, 16(base)(R9*1), Y7, Y7; \
	VUNPCKLPD	Y5, Y4, Y8; \
	VUNPCKHPD	Y5, Y4, Y9; \
	VUNPCKLPD	Y7, Y6, Y10; \
	VUNPCKHPD	Y7, Y6, Y11; \
	VMULPD	Y12, Y8, Y8; \
	VADDPD	Y8, acc, acc; \
	VMULPD	Y13, Y9, Y9; \
	VADDPD	Y9, acc, acc; \
	VMULPD	Y14, Y10, Y10; \
	VADDPD	Y10, acc, acc; \
	VMULPD	Y15, Y11, Y11; \
	VADDPD	Y11, acc, acc

// DOT1 adds one k column of the same four rows times the broadcast x value
// in Y12 to acc, gathering the column element by element.
#define DOT1(base, acc) \
	VMOVSD	(base), X4; \
	VMOVHPD	(base)(R8*1), X4, X4; \
	VMOVSD	(base)(R8*2), X5; \
	VMOVHPD	(base)(R9*1), X5, X5; \
	VINSERTF128	$1, X5, Y4, Y4; \
	VMULPD	Y12, Y4, Y4; \
	VADDPD	Y4, acc, acc

// func dotRows8(dst, w *float64, ldw int, x *float64, k int)
// dst[o] = Σ_{j<k} w[o*ldw+j] * x[j] for o = 0..7. The lanes are output
// rows: each accumulator starts at +0 and adds its row's products in
// ascending j, the term sequence of MatVec's `s += w*x`. Whole k quads go
// through DOT4, the last k%4 columns through DOT1.
TEXT ·dotRows8(SB), NOSPLIT, $0-40
	MOVQ	dst+0(FP), DI
	MOVQ	w+8(FP), SI
	MOVQ	ldw+16(FP), R8
	SHLQ	$3, R8
	LEAQ	(R8)(R8*2), R9
	LEAQ	(SI)(R8*4), R10
	MOVQ	x+24(FP), DX
	MOVQ	k+32(FP), BX
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	MOVQ	BX, CX
	SHRQ	$2, CX
	JEQ	d8tail

d8loop:
	VBROADCASTSD	(DX), Y12
	VBROADCASTSD	8(DX), Y13
	VBROADCASTSD	16(DX), Y14
	VBROADCASTSD	24(DX), Y15
	DOT4(SI, Y0)
	DOT4(R10, Y1)
	ADDQ	$32, SI
	ADDQ	$32, R10
	ADDQ	$32, DX
	DECQ	CX
	JNE	d8loop

d8tail:
	ANDQ	$3, BX
	JEQ	d8store

d8tailloop:
	VBROADCASTSD	(DX), Y12
	DOT1(SI, Y0)
	DOT1(R10, Y1)
	ADDQ	$8, SI
	ADDQ	$8, R10
	ADDQ	$8, DX
	DECQ	BX
	JNE	d8tailloop

d8store:
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VZEROUPPER
	RET

// func dotRows4(dst, w *float64, ldw int, x *float64, k int)
// dotRows8 for four rows.
TEXT ·dotRows4(SB), NOSPLIT, $0-40
	MOVQ	dst+0(FP), DI
	MOVQ	w+8(FP), SI
	MOVQ	ldw+16(FP), R8
	SHLQ	$3, R8
	LEAQ	(R8)(R8*2), R9
	MOVQ	x+24(FP), DX
	MOVQ	k+32(FP), BX
	VXORPD	Y0, Y0, Y0
	MOVQ	BX, CX
	SHRQ	$2, CX
	JEQ	d4tail

d4loop:
	VBROADCASTSD	(DX), Y12
	VBROADCASTSD	8(DX), Y13
	VBROADCASTSD	16(DX), Y14
	VBROADCASTSD	24(DX), Y15
	DOT4(SI, Y0)
	ADDQ	$32, SI
	ADDQ	$32, DX
	DECQ	CX
	JNE	d4loop

d4tail:
	ANDQ	$3, BX
	JEQ	d4store

d4tailloop:
	VBROADCASTSD	(DX), Y12
	DOT1(SI, Y0)
	ADDQ	$8, SI
	ADDQ	$8, DX
	DECQ	BX
	JNE	d4tailloop

d4store:
	VMOVUPD	Y0, (DI)
	VZEROUPPER
	RET

// Offsets into tanhLanes (f64_amd64.go): FastTanh's constants, four lanes
// each.
#define TANH_CLAMP 0
#define TANH_NEGCLAMP 32
#define TANH_ONE 64
#define TANH_NEGONE 96
#define TANH_P13 128
#define TANH_P11 160
#define TANH_P9 192
#define TANH_P7 224
#define TANH_P5 256
#define TANH_P3 288
#define TANH_P1 320
#define TANH_Q6 352
#define TANH_Q4 384
#define TANH_Q2 416
#define TANH_Q0 448

// func tanhVec4(dst, src *float64, n int)
// dst[i] = FastTanh(src[i]) for i < n&^3, four lanes at a time: the same
// products and sums in the same order, then ±1 wherever x > tanhClamp or
// x < -tanhClamp. The compares are ordered, so a NaN lane keeps the
// polynomial's NaN, as FastTanh's comparisons let it through.
TEXT ·tanhVec4(SB), NOSPLIT, $0-24
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	SHRQ	$2, CX
	JEQ	tdone
	LEAQ	·tanhLanes(SB), R8

tloop:
	VMOVUPD	(SI), Y0
	VMULPD	Y0, Y0, Y1
	VMOVUPD	TANH_P13(R8), Y2
	VMULPD	Y1, Y2, Y2
	VADDPD	TANH_P11(R8), Y2, Y2
	VMULPD	Y1, Y2, Y2
	VADDPD	TANH_P9(R8), Y2, Y2
	VMULPD	Y1, Y2, Y2
	VADDPD	TANH_P7(R8), Y2, Y2
	VMULPD	Y1, Y2, Y2
	VADDPD	TANH_P5(R8), Y2, Y2
	VMULPD	Y1, Y2, Y2
	VADDPD	TANH_P3(R8), Y2, Y2
	VMULPD	Y1, Y2, Y2
	VADDPD	TANH_P1(R8), Y2, Y2
	VMULPD	Y0, Y2, Y2
	VMOVUPD	TANH_Q6(R8), Y3
	VMULPD	Y1, Y3, Y3
	VADDPD	TANH_Q4(R8), Y3, Y3
	VMULPD	Y1, Y3, Y3
	VADDPD	TANH_Q2(R8), Y3, Y3
	VMULPD	Y1, Y3, Y3
	VADDPD	TANH_Q0(R8), Y3, Y3
	VDIVPD	Y3, Y2, Y2
	VCMPPD	$0x1e, TANH_CLAMP(R8), Y0, Y4
	VBLENDVPD	Y4, TANH_ONE(R8), Y2, Y2
	VCMPPD	$0x11, TANH_NEGCLAMP(R8), Y0, Y5
	VBLENDVPD	Y5, TANH_NEGONE(R8), Y2, Y2
	VMOVUPD	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	DECQ	CX
	JNE	tloop

tdone:
	VZEROUPPER
	RET
