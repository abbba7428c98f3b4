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

// TRANS4 loads the 4×4 tile of the weight rows at base, base+R8,
// base+2·R8 and base+R9 (= base+3·R8) and transposes it as DOT4 does:
// column j of the tile lands in cj. Y12..Y15 are scratch.
#define TRANS4(base, c0, c1, c2, c3) \
	VMOVUPD	(base), X12; \
	VINSERTF128	$1, (base)(R8*2), Y12, Y12; \
	VMOVUPD	(base)(R8*1), X13; \
	VINSERTF128	$1, (base)(R9*1), Y13, Y13; \
	VMOVUPD	16(base), X14; \
	VINSERTF128	$1, 16(base)(R8*2), Y14, Y14; \
	VMOVUPD	16(base)(R8*1), X15; \
	VINSERTF128	$1, 16(base)(R9*1), Y15, Y15; \
	VUNPCKLPD	Y13, Y12, c0; \
	VUNPCKHPD	Y13, Y12, c1; \
	VUNPCKLPD	Y15, Y14, c2; \
	VUNPCKHPD	Y15, Y14, c3

// COL4 gathers one k column of the same four rows into c, as DOT1 does.
#define COL4(base, c) \
	VMOVSD	(base), X12; \
	VMOVHPD	(base)(R8*1), X12, X12; \
	VMOVSD	(base)(R8*2), X13; \
	VMOVHPD	(base)(R9*1), X13, X13; \
	VINSERTF128	$1, X13, Y12, c

// MAC adds the column c times the broadcast x value at xaddr to acc.
#define MAC(xaddr, c, acc) \
	VBROADCASTSD	xaddr, Y12; \
	VMULPD	Y12, c, Y13; \
	VADDPD	Y13, acc, acc

// func dotPair(d0, d1, w *float64, ldw int, x0, x1 *float64, k, rows int, bias *float64)
// d0[o] = Σ_{j<k} w[o*ldw+j]*x0[j] + bias[o] and d1[o] the same for x1,
// for o < rows (a multiple of 4): dotRows8 for two sample rows at once, so
// each 4×4 weight tile is transposed once for both. Eight rows go through
// four accumulators (two samples × two tiles), a last group of four
// through two. Every accumulator starts at +0 and adds its products in
// ascending j; the stores add bias[o] last, as Linear.Forward adds the
// bias after MatVec. d0 may equal d1 (with x0 equal to x1).
TEXT ·dotPair(SB), NOSPLIT, $0-72
	MOVQ	d0+0(FP), DI
	MOVQ	d1+8(FP), R11
	MOVQ	w+16(FP), SI
	MOVQ	ldw+24(FP), R8
	SHLQ	$3, R8
	LEAQ	(R8)(R8*2), R9
	MOVQ	k+48(FP), BX
	MOVQ	rows+56(FP), R13
	MOVQ	bias+64(FP), AX

p8group:
	CMPQ	R13, $8
	JLT	p4group
	MOVQ	x0+32(FP), DX
	MOVQ	x1+40(FP), R12
	MOVQ	SI, R14
	LEAQ	(SI)(R8*4), R10
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	MOVQ	BX, CX
	SHRQ	$2, CX
	JEQ	p8tail

p8loop:
	TRANS4(SI, Y4, Y5, Y6, Y7)
	TRANS4(R10, Y8, Y9, Y10, Y11)
	MAC((DX), Y4, Y0)
	MAC((DX), Y8, Y1)
	MAC((R12), Y4, Y2)
	MAC((R12), Y8, Y3)
	MAC(8(DX), Y5, Y0)
	MAC(8(DX), Y9, Y1)
	MAC(8(R12), Y5, Y2)
	MAC(8(R12), Y9, Y3)
	MAC(16(DX), Y6, Y0)
	MAC(16(DX), Y10, Y1)
	MAC(16(R12), Y6, Y2)
	MAC(16(R12), Y10, Y3)
	MAC(24(DX), Y7, Y0)
	MAC(24(DX), Y11, Y1)
	MAC(24(R12), Y7, Y2)
	MAC(24(R12), Y11, Y3)
	ADDQ	$32, SI
	ADDQ	$32, R10
	ADDQ	$32, DX
	ADDQ	$32, R12
	DECQ	CX
	JNE	p8loop

p8tail:
	MOVQ	BX, CX
	ANDQ	$3, CX
	JEQ	p8store

p8tailloop:
	COL4(SI, Y4)
	COL4(R10, Y8)
	MAC((DX), Y4, Y0)
	MAC((DX), Y8, Y1)
	MAC((R12), Y4, Y2)
	MAC((R12), Y8, Y3)
	ADDQ	$8, SI
	ADDQ	$8, R10
	ADDQ	$8, DX
	ADDQ	$8, R12
	DECQ	CX
	JNE	p8tailloop

p8store:
	VADDPD	(AX), Y0, Y0
	VADDPD	32(AX), Y1, Y1
	VADDPD	(AX), Y2, Y2
	VADDPD	32(AX), Y3, Y3
	ADDQ	$64, AX
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, (R11)
	VMOVUPD	Y3, 32(R11)
	ADDQ	$64, DI
	ADDQ	$64, R11
	LEAQ	(R14)(R8*8), SI
	SUBQ	$8, R13
	JMP	p8group

p4group:
	TESTQ	R13, R13
	JEQ	pdone
	MOVQ	x0+32(FP), DX
	MOVQ	x1+40(FP), R12
	VXORPD	Y0, Y0, Y0
	VXORPD	Y2, Y2, Y2
	MOVQ	BX, CX
	SHRQ	$2, CX
	JEQ	p4tail

p4loop:
	TRANS4(SI, Y4, Y5, Y6, Y7)
	MAC((DX), Y4, Y0)
	MAC((R12), Y4, Y2)
	MAC(8(DX), Y5, Y0)
	MAC(8(R12), Y5, Y2)
	MAC(16(DX), Y6, Y0)
	MAC(16(R12), Y6, Y2)
	MAC(24(DX), Y7, Y0)
	MAC(24(R12), Y7, Y2)
	ADDQ	$32, SI
	ADDQ	$32, DX
	ADDQ	$32, R12
	DECQ	CX
	JNE	p4loop

p4tail:
	MOVQ	BX, CX
	ANDQ	$3, CX
	JEQ	p4store

p4tailloop:
	COL4(SI, Y4)
	MAC((DX), Y4, Y0)
	MAC((R12), Y4, Y2)
	ADDQ	$8, SI
	ADDQ	$8, DX
	ADDQ	$8, R12
	DECQ	CX
	JNE	p4tailloop

p4store:
	VADDPD	(AX), Y0, Y0
	VADDPD	(AX), Y2, Y2
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y2, (R11)

pdone:
	VZEROUPPER
	RET

// func addVec(dst, a, b *float64, n int)
// dst[i] = a[i] + b[i] for i < n&^3, sixteen and then four at a time. Each
// block is loaded before it is stored, so dst may be a or b.
TEXT ·addVec(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	a+8(FP), SI
	MOVQ	b+16(FP), DX
	MOVQ	n+24(FP), CX
	MOVQ	CX, BX
	SHRQ	$4, CX
	JEQ	add4

add16loop:
	VMOVUPD	(SI), Y0
	VMOVUPD	32(SI), Y1
	VMOVUPD	64(SI), Y2
	VMOVUPD	96(SI), Y3
	VADDPD	(DX), Y0, Y0
	VADDPD	32(DX), Y1, Y1
	VADDPD	64(DX), Y2, Y2
	VADDPD	96(DX), Y3, Y3
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	ADDQ	$128, SI
	ADDQ	$128, DX
	ADDQ	$128, DI
	DECQ	CX
	JNE	add16loop

add4:
	ANDQ	$15, BX
	SHRQ	$2, BX
	JEQ	adddone

add4loop:
	VMOVUPD	(SI), Y0
	VADDPD	(DX), Y0, Y0
	VMOVUPD	Y0, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DX
	ADDQ	$32, DI
	DECQ	BX
	JNE	add4loop

adddone:
	VZEROUPPER
	RET

// TGRAD computes one four-column block of the tanh backward at byte offset
// off of row i: t = dout·(1 − y·y) (Y15 holds 1.0 in every lane), stores t
// into dz and adds it to acc.
#define TGRAD(off, acc) \
	VMOVUPD	off(SI), Y4; \
	VMULPD	Y4, Y4, Y4; \
	VSUBPD	Y4, Y15, Y4; \
	VMULPD	off(DX), Y4, Y4; \
	VMOVUPD	Y4, off(DI); \
	VADDPD	Y4, acc, acc

// func tanhGrad16(dz, dout, y, gb *float64, ld, n int)
// For the 16 columns j at dz, dout, y (rows ld apart) and i = 0..n-1 in
// order: dz[i][j] = dout[i][j]·(1 − y[i][j]²) and gb[j] += dz[i][j]. The
// four accumulators start at gb's values and add the rows in ascending
// order, as derivBatch followed by AddRowSums does.
TEXT ·tanhGrad16(SB), NOSPLIT, $0-48
	MOVQ	dz+0(FP), DI
	MOVQ	dout+8(FP), DX
	MOVQ	y+16(FP), SI
	MOVQ	gb+24(FP), AX
	MOVQ	ld+32(FP), R8
	SHLQ	$3, R8
	MOVQ	n+40(FP), CX
	VMOVUPD	(AX), Y0
	VMOVUPD	32(AX), Y1
	VMOVUPD	64(AX), Y2
	VMOVUPD	96(AX), Y3
	VMOVUPD	·tanhLanes+TANH_ONE(SB), Y15
	TESTQ	CX, CX
	JEQ	tg16store

tg16loop:
	TGRAD(0, Y0)
	TGRAD(32, Y1)
	TGRAD(64, Y2)
	TGRAD(96, Y3)
	ADDQ	R8, SI
	ADDQ	R8, DX
	ADDQ	R8, DI
	DECQ	CX
	JNE	tg16loop

tg16store:
	VMOVUPD	Y0, (AX)
	VMOVUPD	Y1, 32(AX)
	VMOVUPD	Y2, 64(AX)
	VMOVUPD	Y3, 96(AX)
	VZEROUPPER
	RET

// func tanhGrad4(dz, dout, y, gb *float64, ld, n int, mask *[4]int64)
// tanhGrad16 for the lanes of four columns whose mask element is negative.
// Masked-off lanes load as +0 (their t is +0) and are never stored, so a
// call may cover the last 1-3 columns of a row at the end of its slice.
TEXT ·tanhGrad4(SB), NOSPLIT, $0-56
	MOVQ	dz+0(FP), DI
	MOVQ	dout+8(FP), DX
	MOVQ	y+16(FP), SI
	MOVQ	gb+24(FP), AX
	MOVQ	ld+32(FP), R8
	SHLQ	$3, R8
	MOVQ	n+40(FP), CX
	MOVQ	mask+48(FP), BX
	VMOVUPD	(BX), Y3
	VMASKMOVPD	(AX), Y3, Y0
	VMOVUPD	·tanhLanes+TANH_ONE(SB), Y15
	TESTQ	CX, CX
	JEQ	tg4store

tg4loop:
	VMASKMOVPD	(SI), Y3, Y4
	VMULPD	Y4, Y4, Y4
	VSUBPD	Y4, Y15, Y4
	VMASKMOVPD	(DX), Y3, Y5
	VMULPD	Y5, Y4, Y4
	VMASKMOVPD	Y4, Y3, (DI)
	VADDPD	Y4, Y0, Y0
	ADDQ	R8, SI
	ADDQ	R8, DX
	ADDQ	R8, DI
	DECQ	CX
	JNE	tg4loop

tg4store:
	VMASKMOVPD	Y0, Y3, (AX)
	VZEROUPPER
	RET

// Offsets into the coefficient array adamStep4 reads (f64_amd64.go).
#define ADAM_B1 0
#define ADAM_C1 8
#define ADAM_B2 16
#define ADAM_C2 24
#define ADAM_BC1 32
#define ADAM_BC2 40
#define ADAM_LR 48
#define ADAM_EPS 56
#define ADAM_SCALE 64

// func adamStep4(w, grad, m, v *float64, n int, c *[9]float64)
// One Adam step for i < n&^3, four lanes at a time, each lane the Go
// loop's expression in its order: g' = g·scale; m = β1·m + (1−β1)·g';
// v = β2·v + ((1−β2)·g')·g'; w −= (lr·(m/bc1)) / (√(v/bc2) + ε).
// VDIVPD and VSQRTPD round correctly, as Go's / and math.Sqrt do.
TEXT ·adamStep4(SB), NOSPLIT, $0-48
	MOVQ	w+0(FP), DI
	MOVQ	grad+8(FP), SI
	MOVQ	m+16(FP), DX
	MOVQ	v+24(FP), BX
	MOVQ	n+32(FP), CX
	MOVQ	c+40(FP), AX
	SHRQ	$2, CX
	JEQ	adone
	VBROADCASTSD	ADAM_B1(AX), Y7
	VBROADCASTSD	ADAM_C1(AX), Y8
	VBROADCASTSD	ADAM_B2(AX), Y9
	VBROADCASTSD	ADAM_C2(AX), Y10
	VBROADCASTSD	ADAM_BC1(AX), Y11
	VBROADCASTSD	ADAM_BC2(AX), Y12
	VBROADCASTSD	ADAM_LR(AX), Y13
	VBROADCASTSD	ADAM_EPS(AX), Y14
	VBROADCASTSD	ADAM_SCALE(AX), Y15

aloop:
	VMOVUPD	(SI), Y0
	VMULPD	Y15, Y0, Y0
	VMULPD	(DX), Y7, Y1
	VMULPD	Y0, Y8, Y2
	VADDPD	Y2, Y1, Y1
	VMOVUPD	Y1, (DX)
	VMULPD	(BX), Y9, Y3
	VMULPD	Y0, Y10, Y4
	VMULPD	Y0, Y4, Y4
	VADDPD	Y4, Y3, Y3
	VMOVUPD	Y3, (BX)
	VDIVPD	Y11, Y1, Y1
	VDIVPD	Y12, Y3, Y3
	VSQRTPD	Y3, Y3
	VADDPD	Y14, Y3, Y3
	VMULPD	Y1, Y13, Y1
	VDIVPD	Y3, Y1, Y1
	VMOVUPD	(DI), Y2
	VSUBPD	Y1, Y2, Y2
	VMOVUPD	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DX
	ADDQ	$32, BX
	ADDQ	$32, DI
	DECQ	CX
	JNE	aloop

adone:
	VZEROUPPER
	RET
