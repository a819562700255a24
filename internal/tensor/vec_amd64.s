//go:build amd64 && !amd64.v3

#include "textflag.h"

// Vector exponential, softmax, SiLU and attention kernels, declared in
// vec_amd64.go and called from tensor.go and paged.go (DESIGN.md §18).
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
