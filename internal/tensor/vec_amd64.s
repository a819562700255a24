//go:build amd64 && !amd64.v3

#include "textflag.h"

// Vector exponential, softmax, SiLU and attention kernels, declared in
// vec_amd64.go and called from tensor.go, paged.go and block.go
// (DESIGN.md §18, §21).
//
// EXP4 is Go's math.archExp (src/math/exp_amd64.s, the FMA path) with
// every scalar instruction replaced by its 4-lane packed twin: the same
// constants, the same range reduction (k = round-to-nearest of x*log2(e),
// then two fused steps with the split ln 2), the same Taylor polynomial
// by fused multiply-adds in the same order, the same three squarings and
// final fused step, and the same 2^k scaling by one multiply. IEEE-754
// defines each of those operations per lane exactly as for the scalar
// form, so a lane returns math.Exp's bits whenever the scalar code takes
// its main path. That path is guaranteed for x in [-708, 709], where
// k+1023 lies in [2, 2046]. Lanes equal to -Inf give +0, as math.Exp does.
// A block with any other lane (NaN, +Inf, or finite but out of range)
// jumps to fail without writing anything; the caller computes that block
// with scalar math.Exp.

// expc holds each constant broadcast to four lanes, 32 bytes per slot.
#define LOG2E 0
#define LN2U 32
#define LN2L 64
#define SIXTEENTH 96
#define C8 128
#define C7 160
#define C6 192
#define C5 224
#define C4 256
#define C3 288
#define HALF 320
#define ONE 352
#define TWO 384
#define LO 416
#define HI 448
#define NEGINF 480
#define BIAS 512

DATA expc<>+0(SB)/8, $1.4426950408889634073599246810018920
DATA expc<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA expc<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA expc<>+24(SB)/8, $1.4426950408889634073599246810018920
DATA expc<>+32(SB)/8, $0.69314718055966295651160180568695068359375
DATA expc<>+40(SB)/8, $0.69314718055966295651160180568695068359375
DATA expc<>+48(SB)/8, $0.69314718055966295651160180568695068359375
DATA expc<>+56(SB)/8, $0.69314718055966295651160180568695068359375
DATA expc<>+64(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expc<>+72(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expc<>+80(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expc<>+88(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expc<>+96(SB)/8, $0.0625
DATA expc<>+104(SB)/8, $0.0625
DATA expc<>+112(SB)/8, $0.0625
DATA expc<>+120(SB)/8, $0.0625
DATA expc<>+128(SB)/8, $2.4801587301587301587e-5
DATA expc<>+136(SB)/8, $2.4801587301587301587e-5
DATA expc<>+144(SB)/8, $2.4801587301587301587e-5
DATA expc<>+152(SB)/8, $2.4801587301587301587e-5
DATA expc<>+160(SB)/8, $1.9841269841269841270e-4
DATA expc<>+168(SB)/8, $1.9841269841269841270e-4
DATA expc<>+176(SB)/8, $1.9841269841269841270e-4
DATA expc<>+184(SB)/8, $1.9841269841269841270e-4
DATA expc<>+192(SB)/8, $1.3888888888888888889e-3
DATA expc<>+200(SB)/8, $1.3888888888888888889e-3
DATA expc<>+208(SB)/8, $1.3888888888888888889e-3
DATA expc<>+216(SB)/8, $1.3888888888888888889e-3
DATA expc<>+224(SB)/8, $8.3333333333333333333e-3
DATA expc<>+232(SB)/8, $8.3333333333333333333e-3
DATA expc<>+240(SB)/8, $8.3333333333333333333e-3
DATA expc<>+248(SB)/8, $8.3333333333333333333e-3
DATA expc<>+256(SB)/8, $4.1666666666666666667e-2
DATA expc<>+264(SB)/8, $4.1666666666666666667e-2
DATA expc<>+272(SB)/8, $4.1666666666666666667e-2
DATA expc<>+280(SB)/8, $4.1666666666666666667e-2
DATA expc<>+288(SB)/8, $1.6666666666666666667e-1
DATA expc<>+296(SB)/8, $1.6666666666666666667e-1
DATA expc<>+304(SB)/8, $1.6666666666666666667e-1
DATA expc<>+312(SB)/8, $1.6666666666666666667e-1
DATA expc<>+320(SB)/8, $0.5
DATA expc<>+328(SB)/8, $0.5
DATA expc<>+336(SB)/8, $0.5
DATA expc<>+344(SB)/8, $0.5
DATA expc<>+352(SB)/8, $1.0
DATA expc<>+360(SB)/8, $1.0
DATA expc<>+368(SB)/8, $1.0
DATA expc<>+376(SB)/8, $1.0
DATA expc<>+384(SB)/8, $2.0
DATA expc<>+392(SB)/8, $2.0
DATA expc<>+400(SB)/8, $2.0
DATA expc<>+408(SB)/8, $2.0
DATA expc<>+416(SB)/8, $-708.0
DATA expc<>+424(SB)/8, $-708.0
DATA expc<>+432(SB)/8, $-708.0
DATA expc<>+440(SB)/8, $-708.0
DATA expc<>+448(SB)/8, $709.0
DATA expc<>+456(SB)/8, $709.0
DATA expc<>+464(SB)/8, $709.0
DATA expc<>+472(SB)/8, $709.0
DATA expc<>+480(SB)/8, $0xFFF0000000000000
DATA expc<>+488(SB)/8, $0xFFF0000000000000
DATA expc<>+496(SB)/8, $0xFFF0000000000000
DATA expc<>+504(SB)/8, $0xFFF0000000000000
DATA expc<>+512(SB)/8, $0x3FF
DATA expc<>+520(SB)/8, $0x3FF
DATA expc<>+528(SB)/8, $0x3FF
DATA expc<>+536(SB)/8, $0x3FF
GLOBL expc<>(SB), RODATA, $544

// Float32 lane constants for SiLU: the sign bit and 1.0.
DATA f32c<>+0(SB)/4, $0x80000000
DATA f32c<>+4(SB)/4, $0x3F800000
GLOBL f32c<>(SB), RODATA, $8

// EXPRANGE sets m to the lanes of x on archExp's main path and ok to
// those plus the lanes equal to -Inf; a block is the kernel's only when
// ok holds in every lane.
#define EXPRANGE(x, m, ok) \
	VCMPPD       $0x1d, expc<>+LO(SB), x, m \
	VCMPPD       $0x12, expc<>+HI(SB), x, ok \
	VANDPD       ok, m, m \
	VCMPPD       $0x00, expc<>+NEGINF(SB), x, ok \
	VORPD        m, ok, ok

// EXP4 replaces the four float64 lanes of x by their exponentials, given
// EXPRANGE's m, and zeroes the -Inf lanes. t, k (the X form of a third
// register) and s are scratch. Each line is the packed form of the
// archExp line at the same place: MULSD by LOG2E, CVTSD2SL and CVTSL2SD
// (k, rounded to nearest), two VFNMADD231SD by LN2U and LN2L, MULSD
// $0.0625, the Taylor chain of seven VFMADD213SD from C8, MULSD, three
// ADDSD $2.0/MULSD pairs, ADDSD $2.0 and VFMADD213SD 1.0, then ldexp's
// (k+0x3FF)<<52 and one MULSD.
#define EXP4(x, m, t, k, s) \
	VMULPD       expc<>+LOG2E(SB), x, t \
	VCVTPD2DQY   t, k \
	VCVTDQ2PD    k, t \
	VFNMADD231PD expc<>+LN2U(SB), t, x \
	VFNMADD231PD expc<>+LN2L(SB), t, x \
	VMULPD       expc<>+SIXTEENTH(SB), x, x \
	VMOVUPD      expc<>+C8(SB), t \
	VFMADD213PD  expc<>+C7(SB), x, t \
	VFMADD213PD  expc<>+C6(SB), x, t \
	VFMADD213PD  expc<>+C5(SB), x, t \
	VFMADD213PD  expc<>+C4(SB), x, t \
	VFMADD213PD  expc<>+C3(SB), x, t \
	VFMADD213PD  expc<>+HALF(SB), x, t \
	VFMADD213PD  expc<>+ONE(SB), x, t \
	VMULPD       t, x, x \
	VADDPD       expc<>+TWO(SB), x, t \
	VMULPD       t, x, x \
	VADDPD       expc<>+TWO(SB), x, t \
	VMULPD       t, x, x \
	VADDPD       expc<>+TWO(SB), x, t \
	VMULPD       t, x, x \
	VADDPD       expc<>+TWO(SB), x, t \
	VFMADD213PD  expc<>+ONE(SB), t, x \
	VPMOVSXDQ    k, s \
	VPADDQ       expc<>+BIAS(SB), s, s \
	VPSLLQ       $52, s, s \
	VMULPD       s, x, x \
	VANDPD       m, x, x

// EXP4OR is EXPRANGE then EXP4 on Y0 with Y1-Y5 as scratch, jumping to
// fail (clobbering AX) when the block is not the kernel's.
#define EXP4OR(fail) \
	EXPRANGE(Y0, Y4, Y5) \
	VMOVMSKPD    Y5, AX \
	CMPQ         AX, $15 \
	JNE          fail \
	EXP4(Y0, Y4, Y1, X2, Y3)

// SUM4 adds the four lanes of y (X form x) to the float64 in X15, lane 0
// first; t is scratch.
#define SUM4(y, x, t) \
	VADDSD       x, X15, X15 \
	VPERMILPD    $1, x, t \
	VADDSD       t, X15, X15 \
	VEXTRACTF128 $1, y, t \
	VADDSD       t, X15, X15 \
	VPERMILPD    $1, t, t \
	VADDSD       t, X15, X15

// func expAVX(x *float64, n int) int
TEXT ·expAVX(SB), NOSPLIT, $0-24
	MOVQ    x+0(FP), DI
	MOVQ    n+8(FP), BX
	ANDQ    $~3, BX
	XORQ    CX, CX

expLoop:
	CMPQ    CX, BX
	JGE     expDone
	VMOVUPD (DI)(CX*8), Y0
	EXP4OR(expDone)
	VMOVUPD Y0, (DI)(CX*8)
	ADDQ    $4, CX
	JMP     expLoop

expDone:
	MOVQ    CX, ret+16(FP)
	VZEROUPPER
	RET

// func expShiftAVX(x *float32, n int, maxv float32, sum *float64) int
//
// Per block of 4: e = exp(float64(x[i]-maxv)), x[i] = float32(e), and
// *sum += e lane by lane in index order, one serial float64 chain. Pairs
// of blocks go together while both are the kernel's, so the second's
// exponentials overlap the first's additions.
TEXT ·expShiftAVX(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), BX
	ANDQ         $~3, BX
	VBROADCASTSS maxv+16(FP), X14
	MOVQ         sum+24(FP), R8
	VMOVSD       (R8), X15
	XORQ         CX, CX

shiftPair:
	LEAQ         8(CX), DX
	CMPQ         DX, BX
	JGT          shiftLoop
	VMOVUPS      (DI)(CX*4), X7
	VSUBPS       X14, X7, X7
	VCVTPS2PD    X7, Y0
	VMOVUPS      16(DI)(CX*4), X7
	VSUBPS       X14, X7, X7
	VCVTPS2PD    X7, Y6
	EXPRANGE(Y0, Y4, Y5)
	EXPRANGE(Y6, Y10, Y11)
	VANDPD       Y11, Y5, Y5
	VMOVMSKPD    Y5, AX
	CMPQ         AX, $15
	JNE          shiftLoop
	EXP4(Y0, Y4, Y1, X2, Y3)
	EXP4(Y6, Y10, Y7, X8, Y9)
	VCVTPD2PSY   Y0, X12
	VMOVUPS      X12, (DI)(CX*4)
	VCVTPD2PSY   Y6, X13
	VMOVUPS      X13, 16(DI)(CX*4)
	SUM4(Y0, X0, X4)
	SUM4(Y6, X6, X4)
	MOVQ         DX, CX
	JMP          shiftPair

shiftLoop:
	CMPQ         CX, BX
	JGE          shiftDone
	VMOVUPS      (DI)(CX*4), X7
	VSUBPS       X14, X7, X7
	VCVTPS2PD    X7, Y0
	EXP4OR(shiftDone)
	VCVTPD2PSY   Y0, X6
	VMOVUPS      X6, (DI)(CX*4)
	SUM4(Y0, X0, X4)
	ADDQ         $4, CX
	JMP          shiftLoop

shiftDone:
	VMOVSD       X15, (R8)
	MOVQ         CX, ret+32(FP)
	VZEROUPPER
	RET

// func siluAVX(x *float32, n int) int
//
// Per block of 4: x[i] = x[i] / (1 + float32(exp(float64(-x[i])))).
TEXT ·siluAVX(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), BX
	ANDQ         $~3, BX
	VBROADCASTSS f32c<>+0(SB), X8
	VBROADCASTSS f32c<>+4(SB), X9
	XORQ         CX, CX

siluLoop:
	CMPQ         CX, BX
	JGE          siluDone
	VMOVUPS      (DI)(CX*4), X7
	VXORPS       X8, X7, X6
	VCVTPS2PD    X6, Y0
	EXP4OR(siluDone)
	VCVTPD2PSY   Y0, X6
	VADDPS       X9, X6, X6
	VDIVPS       X6, X7, X6
	VMOVUPS      X6, (DI)(CX*4)
	ADDQ         $4, CX
	JMP          siluLoop

siluDone:
	MOVQ         CX, ret+16(FP)
	VZEROUPPER
	RET

// func dotRowsAVX(q, page *float32, hd, n int, out *float32) int
//
// out[r] = sum over k of page[r*hd+k]*q[k] for r < n&^7, with hd a
// multiple of 8, one lane per row: each lane's chain starts at +0 and
// adds its rounded products in increasing k (VMULPS then VADDPS, never
// fused), exactly as Dot does. Each 8-row by 8-column tile is transposed
// in registers: the VINSERTF128 loads pair row j with row j+4, then
// UNPCK/SHUFPS finish the 4x4 transposes within each 128-bit half, which
// leaves column k of the tile in one register, row j in lane j.
TEXT ·dotRowsAVX(SB), NOSPLIT, $0-48
	MOVQ         q+0(FP), AX
	MOVQ         page+8(FP), SI
	MOVQ         hd+16(FP), DX
	MOVQ         n+24(FP), BX
	MOVQ         out+32(FP), DI
	ANDQ         $~7, BX
	MOVQ         BX, ret+40(FP)
	MOVQ         DX, R12
	SHLQ         $2, R12                 // R12: row stride in bytes
	SHRQ         $3, DX                  // DX: tiles per row

dotRows8:
	CMPQ         BX, $8
	JLT          dotDone
	VXORPS       Y0, Y0, Y0
	MOVQ         SI, R10                 // rows 0, 1, 2 (and 4 via R12*4)
	LEAQ         (SI)(R12*4), R9         // rows 4, 5, 6
	LEAQ         (SI)(R12*2), R11
	ADDQ         R12, R11                // rows 3, 7
	MOVQ         AX, R8
	MOVQ         DX, CX

dotTile:
	// Columns 0-3 of the tile.
	VMOVUPS      (R10), X1
	VINSERTF128  $1, (R9), Y1, Y1
	VMOVUPS      (R10)(R12*1), X2
	VINSERTF128  $1, (R9)(R12*1), Y2, Y2
	VMOVUPS      (R10)(R12*2), X3
	VINSERTF128  $1, (R9)(R12*2), Y3, Y3
	VMOVUPS      (R11), X4
	VINSERTF128  $1, (R11)(R12*4), Y4, Y4
	VUNPCKLPS    Y2, Y1, Y5
	VUNPCKHPS    Y2, Y1, Y6
	VUNPCKLPS    Y4, Y3, Y7
	VUNPCKHPS    Y4, Y3, Y8
	VSHUFPS      $0x44, Y7, Y5, Y1
	VSHUFPS      $0xEE, Y7, Y5, Y2
	VSHUFPS      $0x44, Y8, Y6, Y3
	VSHUFPS      $0xEE, Y8, Y6, Y4
	VBROADCASTSS (R8), Y9
	VMULPS       Y9, Y1, Y1
	VADDPS       Y1, Y0, Y0
	VBROADCASTSS 4(R8), Y10
	VMULPS       Y10, Y2, Y2
	VADDPS       Y2, Y0, Y0
	VBROADCASTSS 8(R8), Y11
	VMULPS       Y11, Y3, Y3
	VADDPS       Y3, Y0, Y0
	VBROADCASTSS 12(R8), Y12
	VMULPS       Y12, Y4, Y4
	VADDPS       Y4, Y0, Y0

	// Columns 4-7.
	VMOVUPS      16(R10), X1
	VINSERTF128  $1, 16(R9), Y1, Y1
	VMOVUPS      16(R10)(R12*1), X2
	VINSERTF128  $1, 16(R9)(R12*1), Y2, Y2
	VMOVUPS      16(R10)(R12*2), X3
	VINSERTF128  $1, 16(R9)(R12*2), Y3, Y3
	VMOVUPS      16(R11), X4
	VINSERTF128  $1, 16(R11)(R12*4), Y4, Y4
	VUNPCKLPS    Y2, Y1, Y5
	VUNPCKHPS    Y2, Y1, Y6
	VUNPCKLPS    Y4, Y3, Y7
	VUNPCKHPS    Y4, Y3, Y8
	VSHUFPS      $0x44, Y7, Y5, Y1
	VSHUFPS      $0xEE, Y7, Y5, Y2
	VSHUFPS      $0x44, Y8, Y6, Y3
	VSHUFPS      $0xEE, Y8, Y6, Y4
	VBROADCASTSS 16(R8), Y9
	VMULPS       Y9, Y1, Y1
	VADDPS       Y1, Y0, Y0
	VBROADCASTSS 20(R8), Y10
	VMULPS       Y10, Y2, Y2
	VADDPS       Y2, Y0, Y0
	VBROADCASTSS 24(R8), Y11
	VMULPS       Y11, Y3, Y3
	VADDPS       Y3, Y0, Y0
	VBROADCASTSS 28(R8), Y12
	VMULPS       Y12, Y4, Y4
	VADDPS       Y4, Y0, Y0

	ADDQ         $32, R10
	ADDQ         $32, R9
	ADDQ         $32, R11
	ADDQ         $32, R8
	DECQ         CX
	JNZ          dotTile

	VMOVUPS      Y0, (DI)
	ADDQ         $32, DI
	LEAQ         (SI)(R12*8), SI
	SUBQ         $8, BX
	JMP          dotRows8

dotDone:
	VZEROUPPER
	RET

// func attnAccumAVX(scores *float32, n int, page *float32, hd int, dst *float32) int
//
// dst[d] += scores[r]*page[r*hd+d] for d < hd&^3, one lane per element:
// rows in increasing r, rounded product then add (no fusion), and rows
// whose weight is +0 or -0 skipped, exactly as accumRows does. Columns
// go 16 at a time (two chains per row), then 8, then 4. Returns the
// number of columns done.
TEXT ·attnAccumAVX(SB), NOSPLIT, $0-48
	MOVQ         scores+0(FP), AX
	MOVQ         n+8(FP), BX
	MOVQ         page+16(FP), SI
	MOVQ         hd+24(FP), DX
	MOVQ         dst+32(FP), DI
	MOVQ         DX, R12
	SHLQ         $2, R12                 // R12: row stride in bytes
	MOVQ         DX, R13
	ANDQ         $~3, R13
	MOVQ         R13, ret+40(FP)

acc16:
	CMPQ         R13, $16
	JLT          acc8
	VMOVUPS      (DI), Y0
	VMOVUPS      32(DI), Y1
	MOVQ         SI, R10
	XORQ         CX, CX

acc16Row:
	CMPQ         CX, BX
	JGE          acc16Store
	MOVL         (AX)(CX*4), R9
	TESTL        $0x7fffffff, R9
	JZ           acc16Skip
	VBROADCASTSS (AX)(CX*4), Y4
	VMULPS       (R10), Y4, Y2
	VADDPS       Y2, Y0, Y0
	VMULPS       32(R10), Y4, Y3
	VADDPS       Y3, Y1, Y1

acc16Skip:
	ADDQ         R12, R10
	INCQ         CX
	JMP          acc16Row

acc16Store:
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, SI
	SUBQ         $16, R13
	JMP          acc16

acc8:
	CMPQ         R13, $8
	JLT          acc4
	VMOVUPS      (DI), Y0
	MOVQ         SI, R10
	XORQ         CX, CX

acc8Row:
	CMPQ         CX, BX
	JGE          acc8Store
	MOVL         (AX)(CX*4), R9
	TESTL        $0x7fffffff, R9
	JZ           acc8Skip
	VBROADCASTSS (AX)(CX*4), Y4
	VMULPS       (R10), Y4, Y2
	VADDPS       Y2, Y0, Y0

acc8Skip:
	ADDQ         R12, R10
	INCQ         CX
	JMP          acc8Row

acc8Store:
	VMOVUPS      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	SUBQ         $8, R13

acc4:
	CMPQ         R13, $4
	JLT          accDone
	VMOVUPS      (DI), X0
	MOVQ         SI, R10
	XORQ         CX, CX

acc4Row:
	CMPQ         CX, BX
	JGE          acc4Store
	MOVL         (AX)(CX*4), R9
	TESTL        $0x7fffffff, R9
	JZ           acc4Skip
	VBROADCASTSS (AX)(CX*4), X4
	VMULPS       (R10), X4, X2
	VADDPS       X2, X0, X0

acc4Skip:
	ADDQ         R12, R10
	INCQ         CX
	JMP          acc4Row

acc4Store:
	VMOVUPS      X0, (DI)

accDone:
	VZEROUPPER
	RET

// func maxAVX(x *float32, n int) (m float32, ok bool)
//
// m is the largest of x[0:n&^7], n >= 8, from eight running VMAXPS lanes;
// ok is false if any of them is NaN. For NaN-free input the maximum's
// value does not depend on the order of comparison; only a tie between
// +0 and -0 may resolve to either sign.
TEXT ·maxAVX(SB), NOSPLIT, $0-21
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), BX
	ANDQ         $~7, BX
	VMOVUPS      (DI), Y0
	VCMPPS       $0x03, Y0, Y0, Y1       // unordered: NaN lanes
	MOVQ         $8, CX

maxLoop:
	CMPQ         CX, BX
	JGE          maxReduce
	VMOVUPS      (DI)(CX*4), Y2
	VCMPPS       $0x03, Y2, Y2, Y3
	VORPS        Y3, Y1, Y1
	VMAXPS       Y2, Y0, Y0
	ADDQ         $8, CX
	JMP          maxLoop

maxReduce:
	VEXTRACTF128 $1, Y0, X2
	VMAXPS       X2, X0, X0
	VPERMILPS    $0x4e, X0, X2
	VMAXPS       X2, X0, X0
	VPERMILPS    $0xb1, X0, X2
	VMAXPS       X2, X0, X0
	VMOVSS       X0, m+16(FP)
	VMOVMSKPS    Y1, AX
	TESTL        AX, AX
	SETEQ        ok+20(FP)
	VZEROUPPER
	RET

// func scaleAVX(x *float32, n int, a float32)
//
// x[i] *= a for i < n&^7.
TEXT ·scaleAVX(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), BX
	ANDQ         $~7, BX
	VBROADCASTSS a+16(FP), Y1
	XORQ         CX, CX

scaleLoop:
	CMPQ         CX, BX
	JGE          scaleDone
	VMOVUPS      (DI)(CX*4), Y0
	VMULPS       Y1, Y0, Y0
	VMOVUPS      Y0, (DI)(CX*4)
	ADDQ         $8, CX
	JMP          scaleLoop

scaleDone:
	VZEROUPPER
	RET

// The pow kernel's constants, each broadcast to four lanes: the mantissa
// mask and exponent bias of Frexp, the 1.5*2^52 shift that converts a
// small int64 lane to float64 exactly, +Inf, Ldexp's largest normal biased
// exponent, archLog's constants (src/math/log_amd64.s, same decimal
// literals, so the assembler rounds them to the same bits) and int64 1.
#define PMANT 0
#define PEBIAS 32
#define PMAGIC 64
#define PPOSINF 96
#define PEMAX 128
#define PHSQRT2 160
#define PLN2HI 192
#define PLN2LO 224
#define PL1 256
#define PL2 288
#define PL3 320
#define PL4 352
#define PL5 384
#define PL6 416
#define PL7 448
#define PI64ONE 480

DATA powc<>+0(SB)/8, $0x000FFFFFFFFFFFFF
DATA powc<>+8(SB)/8, $0x000FFFFFFFFFFFFF
DATA powc<>+16(SB)/8, $0x000FFFFFFFFFFFFF
DATA powc<>+24(SB)/8, $0x000FFFFFFFFFFFFF
DATA powc<>+32(SB)/8, $0x3FE
DATA powc<>+40(SB)/8, $0x3FE
DATA powc<>+48(SB)/8, $0x3FE
DATA powc<>+56(SB)/8, $0x3FE
DATA powc<>+64(SB)/8, $0x4338000000000000
DATA powc<>+72(SB)/8, $0x4338000000000000
DATA powc<>+80(SB)/8, $0x4338000000000000
DATA powc<>+88(SB)/8, $0x4338000000000000
DATA powc<>+96(SB)/8, $0x7FF0000000000000
DATA powc<>+104(SB)/8, $0x7FF0000000000000
DATA powc<>+112(SB)/8, $0x7FF0000000000000
DATA powc<>+120(SB)/8, $0x7FF0000000000000
DATA powc<>+128(SB)/8, $2046
DATA powc<>+136(SB)/8, $2046
DATA powc<>+144(SB)/8, $2046
DATA powc<>+152(SB)/8, $2046
DATA powc<>+160(SB)/8, $7.07106781186547524401e-01
DATA powc<>+168(SB)/8, $7.07106781186547524401e-01
DATA powc<>+176(SB)/8, $7.07106781186547524401e-01
DATA powc<>+184(SB)/8, $7.07106781186547524401e-01
DATA powc<>+192(SB)/8, $6.93147180369123816490e-01
DATA powc<>+200(SB)/8, $6.93147180369123816490e-01
DATA powc<>+208(SB)/8, $6.93147180369123816490e-01
DATA powc<>+216(SB)/8, $6.93147180369123816490e-01
DATA powc<>+224(SB)/8, $1.90821492927058770002e-10
DATA powc<>+232(SB)/8, $1.90821492927058770002e-10
DATA powc<>+240(SB)/8, $1.90821492927058770002e-10
DATA powc<>+248(SB)/8, $1.90821492927058770002e-10
DATA powc<>+256(SB)/8, $6.666666666666735130e-01
DATA powc<>+264(SB)/8, $6.666666666666735130e-01
DATA powc<>+272(SB)/8, $6.666666666666735130e-01
DATA powc<>+280(SB)/8, $6.666666666666735130e-01
DATA powc<>+288(SB)/8, $3.999999999940941908e-01
DATA powc<>+296(SB)/8, $3.999999999940941908e-01
DATA powc<>+304(SB)/8, $3.999999999940941908e-01
DATA powc<>+312(SB)/8, $3.999999999940941908e-01
DATA powc<>+320(SB)/8, $2.857142874366239149e-01
DATA powc<>+328(SB)/8, $2.857142874366239149e-01
DATA powc<>+336(SB)/8, $2.857142874366239149e-01
DATA powc<>+344(SB)/8, $2.857142874366239149e-01
DATA powc<>+352(SB)/8, $2.222219843214978396e-01
DATA powc<>+360(SB)/8, $2.222219843214978396e-01
DATA powc<>+368(SB)/8, $2.222219843214978396e-01
DATA powc<>+376(SB)/8, $2.222219843214978396e-01
DATA powc<>+384(SB)/8, $1.818357216161805012e-01
DATA powc<>+392(SB)/8, $1.818357216161805012e-01
DATA powc<>+400(SB)/8, $1.818357216161805012e-01
DATA powc<>+408(SB)/8, $1.818357216161805012e-01
DATA powc<>+416(SB)/8, $1.531383769920937332e-01
DATA powc<>+424(SB)/8, $1.531383769920937332e-01
DATA powc<>+432(SB)/8, $1.531383769920937332e-01
DATA powc<>+440(SB)/8, $1.531383769920937332e-01
DATA powc<>+448(SB)/8, $1.479819860511658591e-01
DATA powc<>+456(SB)/8, $1.479819860511658591e-01
DATA powc<>+464(SB)/8, $1.479819860511658591e-01
DATA powc<>+472(SB)/8, $1.479819860511658591e-01
DATA powc<>+480(SB)/8, $1
DATA powc<>+488(SB)/8, $1
DATA powc<>+496(SB)/8, $1
DATA powc<>+504(SB)/8, $1
GLOBL powc<>(SB), RODATA, $512

// The pow kernel is pow from src/math/pow.go on four float64 lanes,
// split into two passes so that each loop's dependency chain is short
// enough for consecutive blocks to overlap:
//   - powLogAVX: t = yf*Log(x), with Log as archLog (src/math/log_amd64.s):
//     the same SSE2 multiplies, adds, subtracts and divide in the same
//     order, here in their packed form;
//   - powExpAVX: a1 = Exp(t) by EXP4; x1, xe = Frexp(x); then for each bit
//     of yi from the lowest: if set, a1 *= x1 and ae += xe; x1 *= x1,
//     xe <<= 1, and if x1 < 0.5, x1 += x1 and xe--; finally Ldexp(a1, ae)
//     by adding ae to a1's exponent field.
// y = yi + yf, where yi and yf are pow's integer and fractional parts
// after its yf > 0.5 adjustment (yf in (-0.5, 0.5], 0 <= yi < 32; see
// powKernelArgs). Lanes with x > 0 are active; the others (zeros,
// negatives, NaNs) compute on +0 and keep their bits. A positive float32
// widens to a normal float64 with a Frexp exponent in [-148, 128], so
// archLog's k is Frexp's xe and its f1 before the Sqrt2/2 step is Frexp's
// x1; with yi < 32 pow's xe guard never fires, and |yf*Log(x)| < 52 stays
// on archExp's main path.

// func powLogAVX(x *float32, n int, yf float64, t *float64) int
//
// Per block of 4: t[i] = yf*Log(float64(x[i])) for x[i] > 0 (and for +0
// in the other lanes). Stops at the first block holding +Inf, which
// math.Pow handles apart, and returns the number of elements done.
TEXT ·powLogAVX(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), BX
	ANDQ         $~3, BX
	VBROADCASTSD yf+16(FP), Y15
	MOVQ         t+24(FP), SI
	XORQ         CX, CX

logLoop:
	CMPQ         CX, BX
	JGE          logDone
	VMOVUPS      (DI)(CX*4), X12
	VXORPS       X9, X9, X9
	VCMPPS       $0x1e, X9, X12, X13     // active lanes: x > 0, false for NaN
	VCVTPS2PD    X12, Y0
	VCMPPD       $0x00, powc<>+PPOSINF(SB), Y0, Y4
	VMOVMSKPD    Y4, AX
	TESTQ        AX, AX
	JNZ          logDone
	VPMOVSXDQ    X13, Y11
	VANDPD       Y11, Y0, Y0

	// f1 in Y1 and k in Y3, as float64 by the 1.5*2^52 shift.
	VANDPD       powc<>+PMANT(SB), Y0, Y1
	VORPD        expc<>+HALF(SB), Y1, Y1
	VPSRLQ       $52, Y0, Y2
	VPSUBQ       powc<>+PEBIAS(SB), Y2, Y2
	VPADDQ       powc<>+PMAGIC(SB), Y2, Y3
	VSUBPD       powc<>+PMAGIC(SB), Y3, Y3

	// archLog, one packed instruction per scalar one.
	VCMPPD       $0x02, powc<>+PHSQRT2(SB), Y1, Y4 // f1 <= Sqrt2/2
	VANDPD       expc<>+ONE(SB), Y4, Y4
	VSUBPD       Y4, Y3, Y3              // k
	VADDPD       expc<>+ONE(SB), Y4, Y4
	VMULPD       Y4, Y1, Y5              // f1
	VSUBPD       expc<>+ONE(SB), Y5, Y5  // f = f1 - 1
	VADDPD       expc<>+TWO(SB), Y5, Y6
	VDIVPD       Y6, Y5, Y6              // s = f / (2 + f)
	VMULPD       Y6, Y6, Y7              // s2
	VMULPD       Y7, Y7, Y8              // s4
	VMULPD       powc<>+PL7(SB), Y8, Y9
	VADDPD       powc<>+PL5(SB), Y9, Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       powc<>+PL3(SB), Y9, Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       powc<>+PL1(SB), Y9, Y9
	VMULPD       Y9, Y7, Y7              // t1
	VMULPD       powc<>+PL6(SB), Y8, Y9
	VADDPD       powc<>+PL4(SB), Y9, Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       powc<>+PL2(SB), Y9, Y9
	VMULPD       Y9, Y8, Y8              // t2
	VADDPD       Y8, Y7, Y7              // R = t1 + t2
	VMULPD       expc<>+HALF(SB), Y5, Y8
	VMULPD       Y5, Y8, Y8              // hfsq = 0.5 * f * f
	VADDPD       Y8, Y7, Y7              // hfsq + R
	VMULPD       Y7, Y6, Y6              // s*(hfsq+R)
	VMULPD       powc<>+PLN2LO(SB), Y3, Y7
	VADDPD       Y7, Y6, Y6              // + k*Ln2Lo
	VSUBPD       Y6, Y8, Y8              // hfsq - (...)
	VSUBPD       Y5, Y8, Y8              // (...) - f
	VMULPD       powc<>+PLN2HI(SB), Y3, Y3
	VSUBPD       Y8, Y3, Y3              // Log(x) = k*Ln2Hi - (...)
	VMULPD       Y3, Y15, Y3
	VMOVUPD      Y3, (SI)(CX*8)
	ADDQ         $4, CX
	JMP          logLoop

logDone:
	MOVQ         CX, ret+32(FP)
	VZEROUPPER
	RET

// func powExpAVX(x *float32, t *float64, n int, yi int) int
//
// Per block of 4, from powLogAVX's t: every lane with x[i] > 0 gets
// r = math.Pow(float64(x[i]), y), t[i] = r and x[i] = float32(r); the
// other lanes keep x[i] and get t[i] = float64(x[i]). A block where
// Ldexp would make an active lane's result subnormal or infinite is left
// unchanged and ends the call, as does one whose t is off EXP4's range
// (which powLogAVX never produces); the caller computes it with
// math.Pow. Returns the number of elements done.
TEXT ·powExpAVX(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), DI
	MOVQ         t+8(FP), SI
	MOVQ         n+16(FP), BX
	ANDQ         $~3, BX
	MOVQ         yi+24(FP), R8
	VMOVDQU      powc<>+PI64ONE(SB), Y14
	XORQ         CX, CX

powLoop:
	CMPQ         CX, BX
	JGE          powDone
	VMOVUPD      (SI)(CX*8), Y0
	EXPRANGE(Y0, Y4, Y5)
	VMOVMSKPD    Y5, AX
	CMPQ         AX, $15
	JNE          powDone
	EXP4(Y0, Y4, Y5, X6, Y7)             // a1

	// Frexp of the active lanes' x: x1 in Y1, xe in Y2.
	VMOVUPS      (DI)(CX*4), X12
	VXORPS       X9, X9, X9
	VCMPPS       $0x1e, X9, X12, X13
	VCVTPS2PD    X12, Y10
	VPMOVSXDQ    X13, Y11
	VANDPD       Y11, Y10, Y3
	VANDPD       powc<>+PMANT(SB), Y3, Y1
	VORPD        expc<>+HALF(SB), Y1, Y1
	VPSRLQ       $52, Y3, Y2
	VPSUBQ       powc<>+PEBIAS(SB), Y2, Y2

	// The squaring loop over the bits of yi; ae in Y9.
	VPXOR        Y9, Y9, Y9
	MOVQ         R8, R9

powBit:
	TESTQ        R9, R9
	JZ           powLdexp
	TESTQ        $1, R9
	JZ           powSquare
	VMULPD       Y1, Y0, Y0              // a1 *= x1
	VPADDQ       Y2, Y9, Y9              // ae += xe

powSquare:
	VMULPD       Y1, Y1, Y1              // x1 *= x1
	VPADDQ       Y2, Y2, Y2              // xe <<= 1
	VCMPPD       $0x01, expc<>+HALF(SB), Y1, Y4 // x1 < .5
	VADDPD       Y1, Y1, Y8
	VBLENDVPD    Y4, Y8, Y1, Y1          // x1 += x1
	VPADDQ       Y4, Y2, Y2              // xe-- (the mask is -1)
	SHRQ         $1, R9
	JMP          powBit

powLdexp:
	// Ldexp(a1, ae) stays normal iff a1's biased exponent plus ae lies
	// in [1, 2046] in every active lane; it is then the integer add.
	VPSRLQ       $52, Y0, Y4
	VPADDQ       Y9, Y4, Y4
	VPCMPGTQ     powc<>+PEMAX(SB), Y4, Y5
	VPCMPGTQ     Y4, Y14, Y6
	VPOR         Y6, Y5, Y5
	VPTEST       Y11, Y5
	JNZ          powDone
	VPSLLQ       $52, Y9, Y9
	VPADDQ       Y9, Y0, Y0
	VBLENDVPD    Y11, Y0, Y10, Y0
	VMOVUPD      Y0, (SI)(CX*8)
	VCVTPD2PSY   Y0, X0
	VBLENDVPS    X13, X0, X12, X0        // inactive lanes keep x's bits
	VMOVUPS      X0, (DI)(CX*4)
	ADDQ         $4, CX
	JMP          powLoop

powDone:
	MOVQ         CX, ret+32(FP)
	VZEROUPPER
	RET

// The blocked attention kernels (block.go, DESIGN.md §21). A block holds
// eight query rows, one float32 lane each; scores and weights are
// key-major, eight lanes per key, so one YMM register carries one key's
// entry for every row. Each lane runs its row's chain of the per-row
// kernels in the same order: no fused multiply-add, sums in key order.

// func dotBlockAVX(qT, keys *float32, hd, n int, scale float32, out *float32)
//
// out[r*8+i] = (sum over k of qT[k*8+i]*keys[r*hd+k]) * scale. Eight keys
// go together, one accumulator each: per k, the eight keys' k-th elements
// are broadcast and multiplied by the column qT[k] of all eight queries,
// and added to the key's lanes (VMULPS then VADDPS, from +0 in increasing
// k, as Dot). The scale multiplies the finished sums before the store.
// The last n%8 keys go one at a time.
TEXT ·dotBlockAVX(SB), NOSPLIT, $0-48
	MOVQ         qT+0(FP), AX
	MOVQ         keys+8(FP), SI
	MOVQ         hd+16(FP), DX
	MOVQ         n+24(FP), BX
	VBROADCASTSS scale+32(FP), Y15
	MOVQ         out+40(FP), DI
	MOVQ         DX, R12
	SHLQ         $2, R12                 // R12: key stride in bytes

dbk8:
	CMPQ         BX, $8
	JLT          dbk1
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3
	VXORPS       Y4, Y4, Y4
	VXORPS       Y5, Y5, Y5
	VXORPS       Y6, Y6, Y6
	VXORPS       Y7, Y7, Y7
	MOVQ         SI, R10                 // keys 0, 1, 2
	LEAQ         (SI)(R12*4), R9         // keys 4, 5, 6
	LEAQ         (SI)(R12*2), R11
	ADDQ         R12, R11                // keys 3 and 7 (via R12*4)
	MOVQ         AX, R8
	MOVQ         DX, CX

dbk8Col:
	VMOVUPS      (R8), Y8
	VBROADCASTSS (R10), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y0, Y0
	VBROADCASTSS (R10)(R12*1), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y1, Y1
	VBROADCASTSS (R10)(R12*2), Y11
	VMULPS       Y8, Y11, Y11
	VADDPS       Y11, Y2, Y2
	VBROADCASTSS (R11), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS (R9), Y13
	VMULPS       Y8, Y13, Y13
	VADDPS       Y13, Y4, Y4
	VBROADCASTSS (R9)(R12*1), Y14
	VMULPS       Y8, Y14, Y14
	VADDPS       Y14, Y5, Y5
	VBROADCASTSS (R9)(R12*2), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y6, Y6
	VBROADCASTSS (R11)(R12*4), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y7, Y7
	ADDQ         $4, R10
	ADDQ         $4, R9
	ADDQ         $4, R11
	ADDQ         $32, R8
	DECQ         CX
	JNZ          dbk8Col

	VMULPS       Y15, Y0, Y0
	VMULPS       Y15, Y1, Y1
	VMULPS       Y15, Y2, Y2
	VMULPS       Y15, Y3, Y3
	VMULPS       Y15, Y4, Y4
	VMULPS       Y15, Y5, Y5
	VMULPS       Y15, Y6, Y6
	VMULPS       Y15, Y7, Y7
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	VMOVUPS      Y4, 128(DI)
	VMOVUPS      Y5, 160(DI)
	VMOVUPS      Y6, 192(DI)
	VMOVUPS      Y7, 224(DI)
	ADDQ         $256, DI
	LEAQ         (SI)(R12*8), SI
	SUBQ         $8, BX
	JMP          dbk8

dbk1:
	TESTQ        BX, BX
	JZ           dbkDone
	VXORPS       Y0, Y0, Y0
	MOVQ         SI, R10
	MOVQ         AX, R8
	MOVQ         DX, CX

dbk1Col:
	VBROADCASTSS (R10), Y9
	VMULPS       (R8), Y9, Y9
	VADDPS       Y9, Y0, Y0
	ADDQ         $4, R10
	ADDQ         $32, R8
	DECQ         CX
	JNZ          dbk1Col

	VMULPS       Y15, Y0, Y0
	VMOVUPS      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         R12, SI
	DECQ         BX
	JMP          dbk1

dbkDone:
	VZEROUPPER
	RET

// ACCLANE adds lane i's term of one value row to its accumulator: the
// weight at off(R8) broadcast, times the row's eight columns in Y8.
#define ACCLANE(off, acc, t) \
	VBROADCASTSS off(R8), t \
	VMULPS       Y8, t, t \
	VADDPS       t, acc, acc

// ACCLANEOR is ACCLANE unless bit (the lane's bit in DX, set for a ±0
// weight) is set, jumping past the lane to skip.
#define ACCLANEOR(bit, off, acc, skip) \
	TESTL        $bit, DX \
	JNZ          skip \
	ACCLANE(off, acc, Y9)

// func accBlockAVX(w *float32, n int, v *float32, hd int, acc *float32)
//
// acc[i*hd+d] += w[r*8+i]*v[r*hd+d] for d < hd&^7, eight columns at a
// time with lane i's eight in Y<i>: rows in increasing r, rounded product
// then add, and a lane whose weight is +0 or -0 skipped, exactly as
// accumRows does per row. A row whose eight weights are all nonzero (the
// common case) needs no per-lane test.
TEXT ·accBlockAVX(SB), NOSPLIT, $0-40
	MOVQ         w+0(FP), AX
	MOVQ         n+8(FP), BX
	MOVQ         v+16(FP), SI
	MOVQ         hd+24(FP), R13
	MOVQ         acc+32(FP), DI
	MOVQ         R13, R12
	SHLQ         $2, R12                 // R12: row stride in bytes
	SHRQ         $3, R13                 // R13: groups of eight columns
	VXORPS       Y15, Y15, Y15
	LEAQ         (DI)(R12*4), R9         // lanes 4, 5, 6
	LEAQ         (DI)(R12*2), R11
	ADDQ         R12, R11                // lanes 3 and 7 (via R12*4)

abCols:
	VMOVUPS      (DI), Y0
	VMOVUPS      (DI)(R12*1), Y1
	VMOVUPS      (DI)(R12*2), Y2
	VMOVUPS      (R11), Y3
	VMOVUPS      (R9), Y4
	VMOVUPS      (R9)(R12*1), Y5
	VMOVUPS      (R9)(R12*2), Y6
	VMOVUPS      (R11)(R12*4), Y7
	MOVQ         AX, R8
	MOVQ         SI, R10
	MOVQ         BX, CX

abRow:
	TESTQ        CX, CX
	JZ           abStore
	VMOVUPS      (R10), Y8
	VCMPPS       $0x00, (R8), Y15, Y10   // lanes whose weight is ±0
	VMOVMSKPS    Y10, DX
	TESTL        DX, DX
	JNZ          abSparse
	ACCLANE(0, Y0, Y9)
	ACCLANE(4, Y1, Y10)
	ACCLANE(8, Y2, Y11)
	ACCLANE(12, Y3, Y12)
	ACCLANE(16, Y4, Y13)
	ACCLANE(20, Y5, Y14)
	ACCLANE(24, Y6, Y9)
	ACCLANE(28, Y7, Y10)

abNext:
	ADDQ         $32, R8
	ADDQ         R12, R10
	DECQ         CX
	JMP          abRow

abSparse:
	ACCLANEOR(1, 0, Y0, ab1)
ab1:
	ACCLANEOR(2, 4, Y1, ab2)
ab2:
	ACCLANEOR(4, 8, Y2, ab3)
ab3:
	ACCLANEOR(8, 12, Y3, ab4)
ab4:
	ACCLANEOR(16, 16, Y4, ab5)
ab5:
	ACCLANEOR(32, 20, Y5, ab6)
ab6:
	ACCLANEOR(64, 24, Y6, ab7)
ab7:
	ACCLANEOR(128, 28, Y7, abNext)
	JMP          abNext

abStore:
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, (DI)(R12*1)
	VMOVUPS      Y2, (DI)(R12*2)
	VMOVUPS      Y3, (R11)
	VMOVUPS      Y4, (R9)
	VMOVUPS      Y5, (R9)(R12*1)
	VMOVUPS      Y6, (R9)(R12*2)
	VMOVUPS      Y7, (R11)(R12*4)
	ADDQ         $32, DI
	ADDQ         $32, R9
	ADDQ         $32, R11
	ADDQ         $32, SI
	DECQ         R13
	JNZ          abCols

	VZEROUPPER
	RET

// func accBlock4AVX(w *float32, n int, v *float32, hd int, acc *float32)
//
// accBlockAVX for a block with at most four rows: lanes 0-3 only, four
// accumulator chains per eight columns.
TEXT ·accBlock4AVX(SB), NOSPLIT, $0-40
	MOVQ         w+0(FP), AX
	MOVQ         n+8(FP), BX
	MOVQ         v+16(FP), SI
	MOVQ         hd+24(FP), R13
	MOVQ         acc+32(FP), DI
	MOVQ         R13, R12
	SHLQ         $2, R12                 // R12: row stride in bytes
	SHRQ         $3, R13                 // R13: groups of eight columns
	VXORPS       Y15, Y15, Y15
	LEAQ         (DI)(R12*2), R11
	ADDQ         R12, R11                // lane 3

a4Cols:
	VMOVUPS      (DI), Y0
	VMOVUPS      (DI)(R12*1), Y1
	VMOVUPS      (DI)(R12*2), Y2
	VMOVUPS      (R11), Y3
	MOVQ         AX, R8
	MOVQ         SI, R10
	MOVQ         BX, CX

a4Row:
	TESTQ        CX, CX
	JZ           a4Store
	VMOVUPS      (R10), Y8
	VCMPPS       $0x00, (R8), X15, X10   // lanes whose weight is ±0
	VMOVMSKPS    X10, DX
	TESTL        DX, DX
	JNZ          a4Sparse
	ACCLANE(0, Y0, Y9)
	ACCLANE(4, Y1, Y10)
	ACCLANE(8, Y2, Y11)
	ACCLANE(12, Y3, Y12)

a4Next:
	ADDQ         $32, R8
	ADDQ         R12, R10
	DECQ         CX
	JMP          a4Row

a4Sparse:
	ACCLANEOR(1, 0, Y0, a41)
a41:
	ACCLANEOR(2, 4, Y1, a42)
a42:
	ACCLANEOR(4, 8, Y2, a43)
a43:
	ACCLANEOR(8, 12, Y3, a4Next)
	JMP          a4Next

a4Store:
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, (DI)(R12*1)
	VMOVUPS      Y2, (DI)(R12*2)
	VMOVUPS      Y3, (R11)
	ADDQ         $32, DI
	ADDQ         $32, R11
	ADDQ         $32, SI
	DECQ         R13
	JNZ          a4Cols

	VZEROUPPER
	RET

// func maxBlockAVX(x *float32, n int, m *[8]float32) bool
//
// m[i] is the largest of lane i over the n keys, from four running VMAXPS
// accumulators; the result is false if any entry is NaN. For NaN-free
// input the maximum's value does not depend on the order of comparison;
// only a tie between +0 and -0 may resolve to either sign.
TEXT ·maxBlockAVX(SB), NOSPLIT, $0-25
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), BX
	MOVQ         m+16(FP), SI
	VMOVUPS      (DI), Y0
	VCMPPS       $0x03, Y0, Y0, Y4       // unordered: NaN lanes
	VMOVAPS      Y0, Y1
	VMOVAPS      Y0, Y2
	VMOVAPS      Y0, Y3
	MOVQ         $1, CX

mbQuad:
	LEAQ         4(CX), DX
	CMPQ         DX, BX
	JGT          mbOne
	MOVQ         CX, R8
	SHLQ         $5, R8
	VMOVUPS      (DI)(R8*1), Y5
	VMOVUPS      32(DI)(R8*1), Y6
	VMOVUPS      64(DI)(R8*1), Y7
	VMOVUPS      96(DI)(R8*1), Y8
	VCMPPS       $0x03, Y5, Y6, Y9
	VCMPPS       $0x03, Y7, Y8, Y10
	VORPS        Y10, Y9, Y9
	VORPS        Y9, Y4, Y4
	VMAXPS       Y5, Y0, Y0
	VMAXPS       Y6, Y1, Y1
	VMAXPS       Y7, Y2, Y2
	VMAXPS       Y8, Y3, Y3
	MOVQ         DX, CX
	JMP          mbQuad

mbOne:
	CMPQ         CX, BX
	JGE          mbDone
	MOVQ         CX, R8
	SHLQ         $5, R8
	VMOVUPS      (DI)(R8*1), Y5
	VCMPPS       $0x03, Y5, Y5, Y9
	VORPS        Y9, Y4, Y4
	VMAXPS       Y5, Y0, Y0
	INCQ         CX
	JMP          mbOne

mbDone:
	VMAXPS       Y1, Y0, Y0
	VMAXPS       Y3, Y2, Y2
	VMAXPS       Y2, Y0, Y0
	VMOVUPS      Y0, (SI)
	VMOVMSKPS    Y4, AX
	TESTL        AX, AX
	SETEQ        ret+24(FP)
	VZEROUPPER
	RET

// func expBlockAVX(x *float32, n int, m *[8]float32, sums *[8]float64) int
//
// Per key: the eight lanes' x-m[i] (VSUBPS), widened in two halves,
// EXP4 on each, then sums[i] += e in two packed adds — lane i's own
// float64 chain in key order, eight chains in all — and x = float32(e).
// A key with a lane off the kernel's range ends the call unchanged.
TEXT ·expBlockAVX(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), BX
	MOVQ         m+16(FP), SI
	MOVQ         sums+24(FP), R8
	VMOVUPS      (SI), Y12
	VMOVUPD      (R8), Y13
	VMOVUPD      32(R8), Y14
	XORQ         CX, CX

ebLoop:
	CMPQ         CX, BX
	JGE          ebDone
	VMOVUPS      (DI), Y15
	VSUBPS       Y12, Y15, Y15
	VCVTPS2PD    X15, Y0
	VEXTRACTF128 $1, Y15, X6
	VCVTPS2PD    X6, Y6
	EXPRANGE(Y0, Y4, Y5)
	EXPRANGE(Y6, Y10, Y11)
	VANDPD       Y11, Y5, Y5
	VMOVMSKPD    Y5, AX
	CMPQ         AX, $15
	JNE          ebDone
	EXP4(Y0, Y4, Y1, X2, Y3)
	EXP4(Y6, Y10, Y7, X8, Y9)
	VADDPD       Y0, Y13, Y13
	VADDPD       Y6, Y14, Y14
	VCVTPD2PSY   Y0, X0
	VCVTPD2PSY   Y6, X6
	VINSERTF128  $1, X6, Y0, Y0
	VMOVUPS      Y0, (DI)
	ADDQ         $32, DI
	INCQ         CX
	JMP          ebLoop

ebDone:
	VMOVUPD      Y13, (R8)
	VMOVUPD      Y14, 32(R8)
	MOVQ         CX, ret+32(FP)
	VZEROUPPER
	RET

// func expBlock4AVX(x *float32, n int, m *[8]float32, sums *[8]float64) int
//
// expBlockAVX for a block with at most four rows: lanes 0-3 only, one
// EXP4 per key; lanes 4-7 are left unchanged.
TEXT ·expBlock4AVX(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), BX
	MOVQ         m+16(FP), SI
	MOVQ         sums+24(FP), R8
	VMOVUPS      (SI), X12
	VMOVUPD      (R8), Y13
	XORQ         CX, CX

eb4Loop:
	CMPQ         CX, BX
	JGE          eb4Done
	VMOVUPS      (DI), X15
	VSUBPS       X12, X15, X15
	VCVTPS2PD    X15, Y0
	EXP4OR(eb4Done)
	VADDPD       Y0, Y13, Y13
	VCVTPD2PSY   Y0, X0
	VMOVUPS      X0, (DI)
	ADDQ         $32, DI
	INCQ         CX
	JMP          eb4Loop

eb4Done:
	VMOVUPD      Y13, (R8)
	MOVQ         CX, ret+32(FP)
	VZEROUPPER
	RET

// func scaleBlockAVX(x *float32, n int, inv *[8]float32)
//
// x[r*8+i] *= inv[i] for r < n.
TEXT ·scaleBlockAVX(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), BX
	MOVQ         inv+16(FP), SI
	VMOVUPS      (SI), Y1

sbLoop:
	TESTQ        BX, BX
	JZ           sbDone
	VMULPS       (DI), Y1, Y0
	VMOVUPS      Y0, (DI)
	ADDQ         $32, DI
	DECQ         BX
	JMP          sbLoop

sbDone:
	VZEROUPPER
	RET
