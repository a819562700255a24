//go:build amd64 && !amd64.v3

#include "textflag.h"

// Vector exponential, softmax, SiLU and attention kernels, declared in
// vec_amd64.go and called from tensor.go, paged.go and block.go
// (DESIGN.md §18, §21).
//
// EXP4 is Go's math.archExp (src/math/exp_amd64.s, the FMA path) with
// every scalar instruction replaced by its 4-lane packed twin, save the
// integer rounding of k, which two adds reproduce exactly: the same
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
#define SHIFT 544

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
DATA expc<>+544(SB)/8, $0x4338000000000000
DATA expc<>+552(SB)/8, $0x4338000000000000
DATA expc<>+560(SB)/8, $0x4338000000000000
DATA expc<>+568(SB)/8, $0x4338000000000000
GLOBL expc<>(SB), RODATA, $576

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
// EXPRANGE's m, and zeroes the -Inf lanes. t and s are scratch. Each line
// is the packed form of the archExp line at the same place: MULSD by
// LOG2E; then, where archExp rounds k to nearest with CVTSD2SL and
// CVTSL2SD, adding and subtracting SHIFT (1.5·2^52), which rounds to the
// same nearest-even k for |k| < 2^51 and leaves k's integer in the low
// bits of the sum, s; two VFNMADD231SD by LN2U and LN2L, MULSD $0.0625,
// the Taylor chain of seven VFMADD213SD from C8, MULSD, three ADDSD
// $2.0/MULSD pairs, ADDSD $2.0 and VFMADD213SD 1.0, then ldexp's
// (k+0x3FF)<<52 from s (the sum's exponent bits shift out) and one
// MULSD.
#define EXP4(x, m, t, s) \
	VMULPD       expc<>+LOG2E(SB), x, t \
	VADDPD       expc<>+SHIFT(SB), t, s \
	VSUBPD       expc<>+SHIFT(SB), s, t \
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
	VPADDQ       expc<>+BIAS(SB), s, s \
	VPSLLQ       $52, s, s \
	VMULPD       s, x, x \
	VANDPD       m, x, x

// EXP4OR is EXPRANGE then EXP4 on Y0 with Y1 and Y3-Y5 as scratch,
// jumping to fail (clobbering AX) when the block is not the kernel's.
#define EXP4OR(fail) \
	EXPRANGE(Y0, Y4, Y5) \
	VMOVMSKPD    Y5, AX \
	CMPQ         AX, $15 \
	JNE          fail \
	EXP4(Y0, Y4, Y1, Y3)

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
	EXP4(Y0, Y4, Y1, Y3)
	EXP4(Y6, Y10, Y7, Y9)
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

// func dotKeysAVX(q *float32, hd int, keys *float32, stride, n int, scale float32, out *float32)
//
// out[r] = (sum over k of q[k]*keys[k*stride+r]) * scale, one lane per
// key: each lane's chain starts at +0 and adds its rounded products in
// increasing k (VMULPS then VADDPS, never fused), exactly as Dot does,
// and the scale multiplies the finished sum. The keys' element k is one
// contiguous run, so a broadcast q[k] multiplies eight keys per load.
// Keys go 32 at a time (four chains), then 8, then the last n%8 under a
// VMASKMOVPS mask.
TEXT ·dotKeysAVX(SB), NOSPLIT, $0-56
	MOVQ         q+0(FP), AX
	MOVQ         hd+8(FP), DX
	MOVQ         keys+16(FP), SI
	MOVQ         stride+24(FP), R12
	SHLQ         $2, R12                 // R12: dimension stride in bytes
	MOVQ         n+32(FP), BX
	VBROADCASTSS scale+40(FP), Y15
	MOVQ         out+48(FP), DI

dka32:
	CMPQ         BX, $32
	JLT          dka8
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3
	MOVQ         SI, R10
	MOVQ         AX, R8
	MOVQ         DX, CX

dka32Dim:
	VBROADCASTSS (R8), Y8
	VMULPS       (R10), Y8, Y9
	VADDPS       Y9, Y0, Y0
	VMULPS       32(R10), Y8, Y10
	VADDPS       Y10, Y1, Y1
	VMULPS       64(R10), Y8, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       96(R10), Y8, Y12
	VADDPS       Y12, Y3, Y3
	ADDQ         $4, R8
	ADDQ         R12, R10
	DECQ         CX
	JNZ          dka32Dim

	VMULPS       Y15, Y0, Y0
	VMULPS       Y15, Y1, Y1
	VMULPS       Y15, Y2, Y2
	VMULPS       Y15, Y3, Y3
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	SUBQ         $32, BX
	JMP          dka32

dka8:
	CMPQ         BX, $8
	JLT          dkaTail
	VXORPS       Y0, Y0, Y0
	MOVQ         SI, R10
	MOVQ         AX, R8
	MOVQ         DX, CX

dka8Dim:
	VBROADCASTSS (R8), Y8
	VMULPS       (R10), Y8, Y9
	VADDPS       Y9, Y0, Y0
	ADDQ         $4, R8
	ADDQ         R12, R10
	DECQ         CX
	JNZ          dka8Dim

	VMULPS       Y15, Y0, Y0
	VMOVUPS      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	SUBQ         $8, BX
	JMP          dka8

dkaTail:
	TESTQ        BX, BX
	JZ           dkaDone
	MOVQ         $8, CX
	SUBQ         BX, CX
	LEAQ         tailMask<>(SB), R9
	VMOVUPS      (R9)(CX*4), Y7          // Y7: lanes below BX
	VXORPS       Y0, Y0, Y0
	MOVQ         SI, R10
	MOVQ         AX, R8
	MOVQ         DX, CX

dkaTailDim:
	VBROADCASTSS (R8), Y8
	VMASKMOVPS   (R10), Y7, Y9
	VMULPS       Y9, Y8, Y9
	VADDPS       Y9, Y0, Y0
	ADDQ         $4, R8
	ADDQ         R12, R10
	DECQ         CX
	JNZ          dkaTailDim

	VMULPS       Y15, Y0, Y0
	VMASKMOVPS   Y0, Y7, (DI)

dkaDone:
	VZEROUPPER
	RET

// tailMask is eight set int32 lanes then eight clear ones: the eight at
// tailMask+4*(8-m) set the first m lanes.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA, $64

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
	EXP4(Y0, Y4, Y5, Y7)             // a1

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

// func dotBlockAVX(qT, keys *float32, hd, stride, n int, scale float32, out *float32)
//
// out[r*8+i] = (sum over k of qT[k*8+i]*keys[k*stride+r]) * scale. Eight
// keys go together, one accumulator each: per k, the eight keys' k-th
// elements, contiguous in the dim-major layout, are broadcast and
// multiplied by the column qT[k] of all eight queries, and added to the
// key's lanes (VMULPS then VADDPS, from +0 in increasing k, as Dot). The
// scale multiplies the finished sums before the store. The last n%8 keys
// go one at a time.
TEXT ·dotBlockAVX(SB), NOSPLIT, $0-56
	MOVQ         qT+0(FP), AX
	MOVQ         keys+8(FP), SI
	MOVQ         hd+16(FP), DX
	MOVQ         stride+24(FP), R12
	SHLQ         $2, R12                 // R12: dimension stride in bytes
	MOVQ         n+32(FP), BX
	VBROADCASTSS scale+40(FP), Y15
	MOVQ         out+48(FP), DI

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
	MOVQ         SI, R10                 // element k of keys r..r+7
	MOVQ         AX, R8
	MOVQ         DX, CX

dbk8Col:
	VMOVUPS      (R8), Y8
	VBROADCASTSS (R10), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y0, Y0
	VBROADCASTSS 4(R10), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y1, Y1
	VBROADCASTSS 8(R10), Y11
	VMULPS       Y8, Y11, Y11
	VADDPS       Y11, Y2, Y2
	VBROADCASTSS 12(R10), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS 16(R10), Y13
	VMULPS       Y8, Y13, Y13
	VADDPS       Y13, Y4, Y4
	VBROADCASTSS 20(R10), Y14
	VMULPS       Y8, Y14, Y14
	VADDPS       Y14, Y5, Y5
	VBROADCASTSS 24(R10), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y6, Y6
	VBROADCASTSS 28(R10), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y7, Y7
	ADDQ         R12, R10
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
	ADDQ         $32, SI
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
	ADDQ         R12, R10
	ADDQ         $32, R8
	DECQ         CX
	JNZ          dbk1Col

	VMULPS       Y15, Y0, Y0
	VMOVUPS      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $4, SI
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
	EXP4(Y0, Y4, Y1, Y3)
	EXP4(Y6, Y10, Y7, Y9)
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

// The 512-bit tier (DESIGN.md §22). EXP8 is EXP4 on the eight float64
// lanes of a ZMM register: the same constants, each broadcast from its
// expc slot by the instruction itself, the same operations in the same
// order, so every lane returns its EXP4 lane's bits. Only two steps
// change form, not value: the range check compares into opmask registers
// instead of vector masks, and the -Inf lanes are zeroed by the last
// multiply's zeroing mask instead of a VANDPD. The kernels use
// AVX-512F instructions only.

// EXPRANGE8 sets opmask m to the lanes of x on archExp's main path and ok
// to those plus the lanes equal to -Inf, as EXPRANGE does.
#define EXPRANGE8(x, m, ok) \
	VCMPPD.BCST  $0x1d, expc<>+LO(SB), x, m \
	VCMPPD.BCST  $0x12, expc<>+HI(SB), x, m, m \
	VCMPPD.BCST  $0x00, expc<>+NEGINF(SB), x, ok \
	KORW         m, ok, ok

// EXP8 is EXP4 line for line on ZMM registers x, t and s, given
// EXPRANGE8's opmask m.
#define EXP8(x, m, t, s) \
	VMULPD.BCST       expc<>+LOG2E(SB), x, t \
	VADDPD.BCST       expc<>+SHIFT(SB), t, s \
	VSUBPD.BCST       expc<>+SHIFT(SB), s, t \
	VFNMADD231PD.BCST expc<>+LN2U(SB), t, x \
	VFNMADD231PD.BCST expc<>+LN2L(SB), t, x \
	VMULPD.BCST       expc<>+SIXTEENTH(SB), x, x \
	VBROADCASTSD      expc<>+C8(SB), t \
	VFMADD213PD.BCST  expc<>+C7(SB), x, t \
	VFMADD213PD.BCST  expc<>+C6(SB), x, t \
	VFMADD213PD.BCST  expc<>+C5(SB), x, t \
	VFMADD213PD.BCST  expc<>+C4(SB), x, t \
	VFMADD213PD.BCST  expc<>+C3(SB), x, t \
	VFMADD213PD.BCST  expc<>+HALF(SB), x, t \
	VFMADD213PD.BCST  expc<>+ONE(SB), x, t \
	VMULPD            t, x, x \
	VADDPD.BCST       expc<>+TWO(SB), x, t \
	VMULPD            t, x, x \
	VADDPD.BCST       expc<>+TWO(SB), x, t \
	VMULPD            t, x, x \
	VADDPD.BCST       expc<>+TWO(SB), x, t \
	VMULPD            t, x, x \
	VADDPD.BCST       expc<>+TWO(SB), x, t \
	VFMADD213PD.BCST  expc<>+ONE(SB), t, x \
	VPADDQ.BCST       expc<>+BIAS(SB), s, s \
	VPSLLQ            $52, s, s \
	VMULPD.Z          s, x, m, x

// EXP8OR is EXPRANGE8 then EXP8 on Z0 with Z1, Z3, K1 and K2 as scratch,
// jumping to fail (clobbering AX) when the block is not the kernel's.
#define EXP8OR(fail) \
	EXPRANGE8(Z0, K1, K2) \
	KMOVW        K2, AX \
	CMPL         AX, $0xff \
	JNE          fail \
	EXP8(Z0, K1, Z1, Z3)

// SUM8 adds the eight lanes of z to the float64 in X15, lane 0 first;
// y and x are z's YMM and XMM forms, t a YMM scratch register and tx its
// XMM form.
#define SUM8(z, y, x, t, tx) \
	SUM4(y, x, tx) \
	VEXTRACTF64X4 $1, z, t \
	SUM4(t, tx, X5)

// func expAVX512(x *float64, n int) int
//
// expAVX on EXP8: blocks of eight, then a last block of four on EXP4.
// It stops at the first block it declines, so a caller that computes the
// next four elements apart and calls again covers the same blocks of
// four as with expAVX.
TEXT ·expAVX512(SB), NOSPLIT, $0-24
	MOVQ    x+0(FP), DI
	MOVQ    n+8(FP), BX
	ANDQ    $~3, BX
	XORQ    CX, CX

exp8Loop:
	LEAQ    8(CX), DX
	CMPQ    DX, BX
	JGT     exp8Tail
	VMOVUPD (DI)(CX*8), Z0
	EXP8OR(exp8Done)
	VMOVUPD Z0, (DI)(CX*8)
	MOVQ    DX, CX
	JMP     exp8Loop

exp8Tail:
	CMPQ    CX, BX
	JGE     exp8Done
	VMOVUPD (DI)(CX*8), Y0
	EXP4OR(exp8Done)
	VMOVUPD Y0, (DI)(CX*8)
	ADDQ    $4, CX

exp8Done:
	MOVQ    CX, ret+16(FP)
	VZEROUPPER
	RET

// func expShiftAVX512(x *float32, n int, maxv float32, sum *float64) int
//
// expShiftAVX on EXP8: per block of eight, the same exponentials, the
// same float32 stores and the same index-order float64 chain into *sum;
// a last block of four on EXP4. It stops like expAVX512.
TEXT ·expShiftAVX512(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), BX
	ANDQ         $~3, BX
	VBROADCASTSS maxv+16(FP), Y14
	MOVQ         sum+24(FP), R8
	VMOVSD       (R8), X15
	XORQ         CX, CX

shift8Loop:
	LEAQ         8(CX), DX
	CMPQ         DX, BX
	JGT          shift8Tail
	VMOVUPS      (DI)(CX*4), Y7
	VSUBPS       Y14, Y7, Y7
	VCVTPS2PD    Y7, Z0
	EXP8OR(shift8Done)
	VCVTPD2PS    Z0, Y6
	VMOVUPS      Y6, (DI)(CX*4)
	SUM8(Z0, Y0, X0, Y4, X4)
	MOVQ         DX, CX
	JMP          shift8Loop

shift8Tail:
	CMPQ         CX, BX
	JGE          shift8Done
	VMOVUPS      (DI)(CX*4), X7
	VSUBPS       X14, X7, X7
	VCVTPS2PD    X7, Y0
	EXP4OR(shift8Done)
	VCVTPD2PSY   Y0, X6
	VMOVUPS      X6, (DI)(CX*4)
	SUM4(Y0, X0, X4)
	ADDQ         $4, CX

shift8Done:
	VMOVSD       X15, (R8)
	MOVQ         CX, ret+32(FP)
	VZEROUPPER
	RET

// func siluAVX512(x *float32, n int) int
//
// siluAVX on EXP8: blocks of eight, then a last block of four on EXP4.
// It stops like expAVX512.
TEXT ·siluAVX512(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), BX
	ANDQ         $~3, BX
	VBROADCASTSS f32c<>+0(SB), Y8
	VBROADCASTSS f32c<>+4(SB), Y9
	XORQ         CX, CX

silu8Loop:
	LEAQ         8(CX), DX
	CMPQ         DX, BX
	JGT          silu8Tail
	VMOVUPS      (DI)(CX*4), Y7
	VXORPS       Y8, Y7, Y6
	VCVTPS2PD    Y6, Z0
	EXP8OR(silu8Done)
	VCVTPD2PS    Z0, Y6
	VADDPS       Y9, Y6, Y6
	VDIVPS       Y6, Y7, Y6
	VMOVUPS      Y6, (DI)(CX*4)
	MOVQ         DX, CX
	JMP          silu8Loop

silu8Tail:
	CMPQ         CX, BX
	JGE          silu8Done
	VMOVUPS      (DI)(CX*4), X7
	VXORPS       X8, X7, X6
	VCVTPS2PD    X6, Y0
	EXP4OR(silu8Done)
	VCVTPD2PSY   Y0, X6
	VADDPS       X9, X6, X6
	VDIVPS       X6, X7, X6
	VMOVUPS      X6, (DI)(CX*4)
	ADDQ         $4, CX

silu8Done:
	MOVQ         CX, ret+16(FP)
	VZEROUPPER
	RET

// func expBlockAVX512(x *float32, n int, m *[8]float32, sums *[8]float64) int
//
// expBlockAVX with one EXP8 per key: the eight lanes' x-m[i], widened
// whole, and sums[i] += e in one packed add, lane i's own chain in key
// order as before.
TEXT ·expBlockAVX512(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), BX
	MOVQ         m+16(FP), SI
	MOVQ         sums+24(FP), R8
	VMOVUPS      (SI), Y12
	VMOVUPD      (R8), Z13
	XORQ         CX, CX

eb8Loop:
	CMPQ         CX, BX
	JGE          eb8Done
	VMOVUPS      (DI), Y15
	VSUBPS       Y12, Y15, Y15
	VCVTPS2PD    Y15, Z0
	EXP8OR(eb8Done)
	VADDPD       Z0, Z13, Z13
	VCVTPD2PS    Z0, Y0
	VMOVUPS      Y0, (DI)
	ADDQ         $32, DI
	INCQ         CX
	JMP          eb8Loop

eb8Done:
	VMOVUPD      Z13, (R8)
	MOVQ         CX, ret+32(FP)
	VZEROUPPER
	RET

// func expBlock4AVX512(x *float32, n int, m *[8]float32, sums *[8]float64) int
//
// expBlock4AVX with two keys per EXP8: lanes 0-3 of key r in the low
// half, of key r+1 in the high half. The low half is added to the sums
// before the high half, so each lane's chain stays in key order. A last
// odd key, or a pair the range check declines, runs one key on EXP4, and
// the call ends at the first key EXP4 declines.
TEXT ·expBlock4AVX512(SB), NOSPLIT, $0-40
	MOVQ          x+0(FP), DI
	MOVQ          n+8(FP), BX
	MOVQ          m+16(FP), SI
	MOVQ          sums+24(FP), R8
	VMOVUPS       (SI), X12
	VINSERTF128   $1, X12, Y12, Y12
	VMOVUPD       (R8), Y13
	XORQ          CX, CX

eb48Pair:
	LEAQ          2(CX), DX
	CMPQ          DX, BX
	JGT           eb48One
	VMOVUPS       (DI), X15
	VINSERTF128   $1, 32(DI), Y15, Y15
	VSUBPS        Y12, Y15, Y15
	VCVTPS2PD     Y15, Z0
	EXPRANGE8(Z0, K1, K2)
	KMOVW         K2, AX
	CMPL          AX, $0xff
	JNE           eb48One
	EXP8(Z0, K1, Z1, Z3)
	VADDPD        Y0, Y13, Y13
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPD        Y1, Y13, Y13
	VCVTPD2PS     Z0, Y0
	VMOVUPS       X0, (DI)
	VEXTRACTF128  $1, Y0, 32(DI)
	ADDQ          $64, DI
	MOVQ          DX, CX
	JMP           eb48Pair

eb48One:
	CMPQ          CX, BX
	JGE           eb48Done
	VMOVUPS       (DI), X15
	VSUBPS        X12, X15, X15
	VCVTPS2PD     X15, Y0
	EXP4OR(eb48Done)
	VADDPD        Y0, Y13, Y13
	VCVTPD2PSY    Y0, X0
	VMOVUPS       X0, (DI)
	ADDQ          $32, DI
	INCQ          CX
	JMP           eb48Pair

eb48Done:
	VMOVUPD       Y13, (R8)
	MOVQ          CX, ret+32(FP)
	VZEROUPPER
	RET

// func dotKeysAVX512(q *float32, hd int, keys *float32, stride, n int, scale float32, out *float32)
//
// dotKeysAVX sixteen keys to a ZMM register: 64 keys at a time (four
// chains, a whole default page), then 16, then the last n%16 under the
// opmask K1, whose masked-off lanes are neither loaded nor stored.
TEXT ·dotKeysAVX512(SB), NOSPLIT, $0-56
	MOVQ         q+0(FP), AX
	MOVQ         hd+8(FP), DX
	MOVQ         keys+16(FP), SI
	MOVQ         stride+24(FP), R12
	SHLQ         $2, R12                 // R12: dimension stride in bytes
	MOVQ         n+32(FP), BX
	VBROADCASTSS scale+40(FP), Z15
	MOVQ         out+48(FP), DI

dkz64:
	CMPQ         BX, $64
	JLT          dkz16
	VPXORD       Z0, Z0, Z0
	VPXORD       Z1, Z1, Z1
	VPXORD       Z2, Z2, Z2
	VPXORD       Z3, Z3, Z3
	MOVQ         SI, R10
	MOVQ         AX, R8
	MOVQ         DX, CX

dkz64Dim:
	VBROADCASTSS (R8), Z8
	VMULPS       (R10), Z8, Z9
	VADDPS       Z9, Z0, Z0
	VMULPS       64(R10), Z8, Z10
	VADDPS       Z10, Z1, Z1
	VMULPS       128(R10), Z8, Z11
	VADDPS       Z11, Z2, Z2
	VMULPS       192(R10), Z8, Z12
	VADDPS       Z12, Z3, Z3
	ADDQ         $4, R8
	ADDQ         R12, R10
	DECQ         CX
	JNZ          dkz64Dim

	VMULPS       Z15, Z0, Z0
	VMULPS       Z15, Z1, Z1
	VMULPS       Z15, Z2, Z2
	VMULPS       Z15, Z3, Z3
	VMOVUPS      Z0, (DI)
	VMOVUPS      Z1, 64(DI)
	VMOVUPS      Z2, 128(DI)
	VMOVUPS      Z3, 192(DI)
	ADDQ         $256, DI
	ADDQ         $256, SI
	SUBQ         $64, BX
	JMP          dkz64

dkz16:
	CMPQ         BX, $16
	JLT          dkzTail
	VPXORD       Z0, Z0, Z0
	MOVQ         SI, R10
	MOVQ         AX, R8
	MOVQ         DX, CX

dkz16Dim:
	VBROADCASTSS (R8), Z8
	VMULPS       (R10), Z8, Z9
	VADDPS       Z9, Z0, Z0
	ADDQ         $4, R8
	ADDQ         R12, R10
	DECQ         CX
	JNZ          dkz16Dim

	VMULPS       Z15, Z0, Z0
	VMOVUPS      Z0, (DI)
	ADDQ         $64, DI
	ADDQ         $64, SI
	SUBQ         $16, BX
	JMP          dkz16

dkzTail:
	TESTQ        BX, BX
	JZ           dkzDone
	MOVQ         BX, CX
	MOVL         $1, R9
	SHLL         CX, R9
	DECL         R9
	KMOVW        R9, K1                  // K1: lanes below BX
	VPXORD       Z0, Z0, Z0
	MOVQ         SI, R10
	MOVQ         AX, R8
	MOVQ         DX, CX

dkzTailDim:
	VBROADCASTSS (R8), Z8
	VMULPS.Z     (R10), Z8, K1, Z9
	VADDPS       Z9, Z0, Z0
	ADDQ         $4, R8
	ADDQ         R12, R10
	DECQ         CX
	JNZ          dkzTailDim

	VMULPS       Z15, Z0, Z0
	VMOVUPS      Z0, K1, (DI)

dkzDone:
	VZEROUPPER
	RET

// The multi-head kernels of one-row passes (heads.go, DESIGN.md §27).
// Each carries four rows (heads) side by side, every row its own chain in
// its per-row kernel's order: a row's float64 softmax sum in index order,
// a row's value accumulators over the keys in increasing order. A caller
// with fewer heads points the spare slots at head 0, whose work they then
// repeat bit for bit.

// headsIdx holds the VPERMT2PD indices that interleave two tables' 128-bit
// lanes: lanes 0 and 1 of each (0,1 then 8,9, 2,3 then 10,11), and lanes 2
// and 3 (4,5 then 12,13, 6,7 then 14,15).
DATA headsIdx<>+0(SB)/8, $0
DATA headsIdx<>+8(SB)/8, $1
DATA headsIdx<>+16(SB)/8, $8
DATA headsIdx<>+24(SB)/8, $9
DATA headsIdx<>+32(SB)/8, $2
DATA headsIdx<>+40(SB)/8, $3
DATA headsIdx<>+48(SB)/8, $10
DATA headsIdx<>+56(SB)/8, $11
DATA headsIdx<>+64(SB)/8, $4
DATA headsIdx<>+72(SB)/8, $5
DATA headsIdx<>+80(SB)/8, $12
DATA headsIdx<>+88(SB)/8, $13
DATA headsIdx<>+96(SB)/8, $6
DATA headsIdx<>+104(SB)/8, $7
DATA headsIdx<>+112(SB)/8, $14
DATA headsIdx<>+120(SB)/8, $15
GLOBL headsIdx<>(SB), RODATA, $128

// func expShiftHeadsAVX(x *[4]*float32, off, n int, maxv *[4]float32, sums *[4]float64) int
//
// Per block of 4 elements of the four rows: EXP4 on each row's
// x[h][i]-maxv[h], then the 4x4 transpose that puts element i of every
// row in one register, so the four float64 sums, one lane each in Y15,
// add element i, then i+1, ..., each sum its own index-order chain.
TEXT ·expShiftHeadsAVX(SB), NOSPLIT, $0-48
	MOVQ         x+0(FP), AX
	MOVQ         0(AX), R8
	MOVQ         8(AX), R9
	MOVQ         16(AX), R10
	MOVQ         24(AX), R11
	MOVQ         off+8(FP), CX
	MOVQ         n+16(FP), BX
	ANDQ         $~3, BX
	ADDQ         CX, BX                  // BX: end
	MOVQ         CX, R12                 // R12: start
	MOVQ         maxv+24(FP), SI
	VBROADCASTSS 0(SI), X11
	VBROADCASTSS 4(SI), X12
	VBROADCASTSS 8(SI), X13
	VBROADCASTSS 12(SI), X14
	MOVQ         sums+32(FP), DI
	VMOVUPD      (DI), Y15

hx4Loop:
	CMPQ         CX, BX
	JGE          hx4Done
	VMOVUPS      (R8)(CX*4), X0
	VSUBPS       X11, X0, X0
	VCVTPS2PD    X0, Y0
	VMOVUPS      (R9)(CX*4), X1
	VSUBPS       X12, X1, X1
	VCVTPS2PD    X1, Y1
	VMOVUPS      (R10)(CX*4), X2
	VSUBPS       X13, X2, X2
	VCVTPS2PD    X2, Y2
	VMOVUPS      (R11)(CX*4), X3
	VSUBPS       X14, X3, X3
	VCVTPS2PD    X3, Y3
	EXPRANGE(Y0, Y4, Y8)
	EXPRANGE(Y1, Y5, Y9)
	VANDPD       Y9, Y8, Y8
	EXPRANGE(Y2, Y6, Y9)
	VANDPD       Y9, Y8, Y8
	EXPRANGE(Y3, Y7, Y9)
	VANDPD       Y9, Y8, Y8
	VMOVMSKPD    Y8, AX
	CMPQ         AX, $15
	JNE          hx4Done
	EXP4(Y0, Y4, Y8, Y10)
	EXP4(Y1, Y5, Y8, Y10)
	EXP4(Y2, Y6, Y8, Y10)
	EXP4(Y3, Y7, Y8, Y10)
	VCVTPD2PSY   Y0, X4
	VMOVUPS      X4, (R8)(CX*4)
	VCVTPD2PSY   Y1, X4
	VMOVUPS      X4, (R9)(CX*4)
	VCVTPD2PSY   Y2, X4
	VMOVUPS      X4, (R10)(CX*4)
	VCVTPD2PSY   Y3, X4
	VMOVUPS      X4, (R11)(CX*4)
	VUNPCKLPD    Y1, Y0, Y4              // a0 b0 a2 b2
	VUNPCKHPD    Y1, Y0, Y5              // a1 b1 a3 b3
	VUNPCKLPD    Y3, Y2, Y6              // c0 d0 c2 d2
	VUNPCKHPD    Y3, Y2, Y7              // c1 d1 c3 d3
	VPERM2F128   $0x20, Y6, Y4, Y8       // element 0 of every row
	VADDPD       Y8, Y15, Y15
	VPERM2F128   $0x20, Y7, Y5, Y8       // element 1
	VADDPD       Y8, Y15, Y15
	VPERM2F128   $0x31, Y6, Y4, Y8       // element 2
	VADDPD       Y8, Y15, Y15
	VPERM2F128   $0x31, Y7, Y5, Y8       // element 3
	VADDPD       Y8, Y15, Y15
	ADDQ         $4, CX
	JMP          hx4Loop

hx4Done:
	VMOVUPD      Y15, (DI)
	SUBQ         R12, CX
	MOVQ         CX, ret+40(FP)
	VZEROUPPER
	RET

// func expShiftHeadsAVX512(x *[4]*float32, off, n int, maxv *[4]float32, sums *[4]float64) int
//
// expShiftHeadsAVX on EXP8, per block of 8 elements of the four rows:
// the 4x8 transpose (VUNPCKLPD/VUNPCKHPD within 128-bit lanes, then
// VPERMT2PD across them) leaves elements i and i+2 of every row in one
// ZMM register, and the sums add element i, i+1, ..., i+7 in turn. The
// subtraction runs on the low eight float32 lanes of a ZMM register, so
// the kernel needs no AVX-512VL.
TEXT ·expShiftHeadsAVX512(SB), NOSPLIT, $0-48
	MOVQ         x+0(FP), AX
	MOVQ         0(AX), R8
	MOVQ         8(AX), R9
	MOVQ         16(AX), R10
	MOVQ         24(AX), R11
	MOVQ         off+8(FP), CX
	MOVQ         n+16(FP), BX
	ANDQ         $~7, BX
	ADDQ         CX, BX                  // BX: end
	MOVQ         CX, R12                 // R12: start
	MOVQ         maxv+24(FP), SI
	MOVQ         sums+32(FP), DI
	VMOVUPD      (DI), Y15
	VMOVDQU64    headsIdx<>+0(SB), Z21
	VMOVDQU64    headsIdx<>+64(SB), Z22

hx8Loop:
	CMPQ         CX, BX
	JGE          hx8Done
	VMOVUPS      (R8)(CX*4), Y0
	VSUBPS.BCST  0(SI), Z0, Z0
	VCVTPS2PD    Y0, Z0
	VMOVUPS      (R9)(CX*4), Y1
	VSUBPS.BCST  4(SI), Z1, Z1
	VCVTPS2PD    Y1, Z1
	VMOVUPS      (R10)(CX*4), Y2
	VSUBPS.BCST  8(SI), Z2, Z2
	VCVTPS2PD    Y2, Z2
	VMOVUPS      (R11)(CX*4), Y3
	VSUBPS.BCST  12(SI), Z3, Z3
	VCVTPS2PD    Y3, Z3
	EXPRANGE8(Z0, K1, K5)
	EXPRANGE8(Z1, K2, K6)
	KANDW        K6, K5, K5
	EXPRANGE8(Z2, K3, K6)
	KANDW        K6, K5, K5
	EXPRANGE8(Z3, K4, K6)
	KANDW        K6, K5, K5
	KMOVW        K5, AX
	CMPL         AX, $0xff
	JNE          hx8Done
	EXP8(Z0, K1, Z4, Z6)
	EXP8(Z1, K2, Z7, Z9)
	EXP8(Z2, K3, Z10, Z12)
	EXP8(Z3, K4, Z13, Z16)
	VCVTPD2PS    Z0, Y4
	VMOVUPS      Y4, (R8)(CX*4)
	VCVTPD2PS    Z1, Y4
	VMOVUPS      Y4, (R9)(CX*4)
	VCVTPD2PS    Z2, Y4
	VMOVUPS      Y4, (R10)(CX*4)
	VCVTPD2PS    Z3, Y4
	VMOVUPS      Y4, (R11)(CX*4)
	VUNPCKLPD    Z1, Z0, Z4              // a0 b0 a2 b2 a4 b4 a6 b6
	VUNPCKHPD    Z1, Z0, Z5              // a1 b1 a3 b3 ...
	VUNPCKLPD    Z3, Z2, Z6              // c0 d0 c2 d2 ...
	VUNPCKHPD    Z3, Z2, Z7              // c1 d1 c3 d3 ...
	VMOVAPD      Z4, Z8
	VPERMT2PD    Z6, Z21, Z8             // elements 0 | 2 of every row
	VMOVAPD      Z5, Z9
	VPERMT2PD    Z7, Z21, Z9             // elements 1 | 3
	VPERMT2PD    Z6, Z22, Z4             // elements 4 | 6
	VPERMT2PD    Z7, Z22, Z5             // elements 5 | 7
	VADDPD       Y8, Y15, Y15
	VADDPD       Y9, Y15, Y15
	VEXTRACTF64X4 $1, Z8, Y10
	VADDPD       Y10, Y15, Y15
	VEXTRACTF64X4 $1, Z9, Y10
	VADDPD       Y10, Y15, Y15
	VADDPD       Y4, Y15, Y15
	VADDPD       Y5, Y15, Y15
	VEXTRACTF64X4 $1, Z4, Y10
	VADDPD       Y10, Y15, Y15
	VEXTRACTF64X4 $1, Z5, Y10
	VADDPD       Y10, Y15, Y15
	ADDQ         $8, CX
	JMP          hx8Loop

hx8Done:
	VMOVUPD      Y15, (DI)
	SUBQ         R12, CX
	MOVQ         CX, ret+40(FP)
	VZEROUPPER
	RET

// The value kernels keep the four rows' weight pointers in R8-R11, their
// value pages in R12, R13, SI and DI, the row stride in bytes in AX, the
// key in CX, and in DX the key's row offset plus the column group's,
// R14. The output pointers are read from dst at each group's start and
// end.

// AHKEY adds one key's terms to the four accumulators Z0-Z3, weights at
// off past key CX, columns under K7, and steps DX to the next row.
#define AHKEY(off) \
	VBROADCASTSS off(R8)(CX*4), Z16 \
	VMULPS.Z     (R12)(DX*1), Z16, K7, Z16 \
	VADDPS       Z16, Z0, Z0 \
	VBROADCASTSS off(R9)(CX*4), Z17 \
	VMULPS.Z     (R13)(DX*1), Z17, K7, Z17 \
	VADDPS       Z17, Z1, Z1 \
	VBROADCASTSS off(R10)(CX*4), Z18 \
	VMULPS.Z     (SI)(DX*1), Z18, K7, Z18 \
	VADDPS       Z18, Z2, Z2 \
	VBROADCASTSS off(R11)(CX*4), Z19 \
	VMULPS.Z     (DI)(DX*1), Z19, K7, Z19 \
	VADDPS       Z19, Z3, Z3 \
	ADDQ         AX, DX

// AHKEYM is AHKEY with each add under the opmask of its weight's being
// other than ±0 (NEQ_UQ, so a NaN weight adds), which skips a ±0 weight
// as accumRows does.
#define AHKEYM(off) \
	VBROADCASTSS off(R8)(CX*4), Z16 \
	VCMPPS       $4, Z31, Z16, K1 \
	VMULPS.Z     (R12)(DX*1), Z16, K7, Z16 \
	VADDPS       Z16, Z0, K1, Z0 \
	VBROADCASTSS off(R9)(CX*4), Z17 \
	VCMPPS       $4, Z31, Z17, K2 \
	VMULPS.Z     (R13)(DX*1), Z17, K7, Z17 \
	VADDPS       Z17, Z1, K2, Z1 \
	VBROADCASTSS off(R10)(CX*4), Z18 \
	VCMPPS       $4, Z31, Z18, K3 \
	VMULPS.Z     (SI)(DX*1), Z18, K7, Z18 \
	VADDPS       Z18, Z2, K3, Z2 \
	VBROADCASTSS off(R11)(CX*4), Z19 \
	VCMPPS       $4, Z31, Z19, K4 \
	VMULPS.Z     (DI)(DX*1), Z19, K7, Z19 \
	VADDPS       Z19, Z3, K4, Z3 \
	ADDQ         AX, DX

// func accHeadsAVX512(w *[4]*float32, n int, v *[4]*float32, hd int, dst *[4]*float32)
//
// dst[h][d] += w[h][r]*v[h][r*hd+d], rounded product then add, rows in
// increasing r and ±0 weights skipped. Columns go sixteen at a time, the
// last group masked by K7, with head h's sixteen in Z<h>. Keys go
// sixteen at a time: a block whose 64 weights are all other than ±0 (the
// common case) adds with no per-key test, any other block and the last
// n%16 keys add under per-head masks.
TEXT ·accHeadsAVX512(SB), NOSPLIT, $0-40
	MOVQ         w+0(FP), AX
	MOVQ         0(AX), R8
	MOVQ         8(AX), R9
	MOVQ         16(AX), R10
	MOVQ         24(AX), R11
	MOVQ         v+16(FP), AX
	MOVQ         0(AX), R12
	MOVQ         8(AX), R13
	MOVQ         16(AX), SI
	MOVQ         24(AX), DI
	MOVQ         n+8(FP), BX
	ANDQ         $~15, BX                // BX: keys in whole blocks of 16
	MOVQ         hd+24(FP), AX
	SHLQ         $2, AX                  // AX: row stride in bytes
	VPXORD       Z31, Z31, Z31
	XORQ         R14, R14                // R14: column group offset in bytes

ahCols:
	MOVQ         AX, CX
	SUBQ         R14, CX
	SHRQ         $2, CX                  // columns left
	MOVL         $0xffff, DX
	CMPQ         CX, $16
	JGE          ahMask
	MOVL         $1, DX
	SHLL         CX, DX
	DECL         DX

ahMask:
	KMOVW        DX, K7
	MOVQ         dst+32(FP), CX
	MOVQ         0(CX), DX
	VMOVUPS.Z    (DX)(R14*1), K7, Z0
	MOVQ         8(CX), DX
	VMOVUPS.Z    (DX)(R14*1), K7, Z1
	MOVQ         16(CX), DX
	VMOVUPS.Z    (DX)(R14*1), K7, Z2
	MOVQ         24(CX), DX
	VMOVUPS.Z    (DX)(R14*1), K7, Z3
	XORQ         CX, CX
	MOVQ         R14, DX

ah16:
	CMPQ         CX, BX
	JGE          ahTail
	VCMPPS       $0, (R8)(CX*4), Z31, K1 // keys whose weight is ±0
	VCMPPS       $0, (R9)(CX*4), Z31, K2
	KORW         K2, K1, K1
	VCMPPS       $0, (R10)(CX*4), Z31, K2
	KORW         K2, K1, K1
	VCMPPS       $0, (R11)(CX*4), Z31, K2
	KORW         K2, K1, K1
	KORTESTW     K1, K1
	JNZ          ah16Sparse
	AHKEY(0)
	AHKEY(4)
	AHKEY(8)
	AHKEY(12)
	AHKEY(16)
	AHKEY(20)
	AHKEY(24)
	AHKEY(28)
	AHKEY(32)
	AHKEY(36)
	AHKEY(40)
	AHKEY(44)
	AHKEY(48)
	AHKEY(52)
	AHKEY(56)
	AHKEY(60)
	ADDQ         $16, CX
	JMP          ah16

ah16Sparse:
	AHKEYM(0)
	AHKEYM(4)
	AHKEYM(8)
	AHKEYM(12)
	AHKEYM(16)
	AHKEYM(20)
	AHKEYM(24)
	AHKEYM(28)
	AHKEYM(32)
	AHKEYM(36)
	AHKEYM(40)
	AHKEYM(44)
	AHKEYM(48)
	AHKEYM(52)
	AHKEYM(56)
	AHKEYM(60)
	ADDQ         $16, CX
	JMP          ah16

ahTail:
	CMPQ         CX, n+8(FP)
	JGE          ahStore
	AHKEYM(0)
	INCQ         CX
	JMP          ahTail

ahStore:
	MOVQ         dst+32(FP), CX
	MOVQ         0(CX), DX
	VMOVUPS      Z0, K7, (DX)(R14*1)
	MOVQ         8(CX), DX
	VMOVUPS      Z1, K7, (DX)(R14*1)
	MOVQ         16(CX), DX
	VMOVUPS      Z2, K7, (DX)(R14*1)
	MOVQ         24(CX), DX
	VMOVUPS      Z3, K7, (DX)(R14*1)
	ADDQ         $64, R14
	CMPQ         R14, AX
	JLT          ahCols

	VZEROUPPER
	RET

// AHKEY8 is AHKEY on eight columns in Y0-Y3.
#define AHKEY8(off) \
	VBROADCASTSS off(R8)(CX*4), Y4 \
	VMULPS       (R12)(DX*1), Y4, Y4 \
	VADDPS       Y4, Y0, Y0 \
	VBROADCASTSS off(R9)(CX*4), Y5 \
	VMULPS       (R13)(DX*1), Y5, Y5 \
	VADDPS       Y5, Y1, Y1 \
	VBROADCASTSS off(R10)(CX*4), Y6 \
	VMULPS       (SI)(DX*1), Y6, Y6 \
	VADDPS       Y6, Y2, Y2 \
	VBROADCASTSS off(R11)(CX*4), Y7 \
	VMULPS       (DI)(DX*1), Y7, Y7 \
	VADDPS       Y7, Y3, Y3 \
	ADDQ         AX, DX

// AHLANE8 adds one head's term, weight at off(w), value row at (v)(DX),
// to acc unless the weight is ±0: the sum is blended in under the
// weight's NEQ_UQ mask.
#define AHLANE8(off, w, v, acc) \
	VBROADCASTSS off(w)(CX*4), Y4 \
	VCMPPS       $4, Y15, Y4, Y5 \
	VMULPS       (v)(DX*1), Y4, Y4 \
	VADDPS       Y4, acc, Y6 \
	VBLENDVPS    Y5, Y6, acc, acc

// AHKEYM8 is AHKEY8 with each head's ±0 weight skipped.
#define AHKEYM8(off) \
	AHLANE8(off, R8, R12, Y0) \
	AHLANE8(off, R9, R13, Y1) \
	AHLANE8(off, R10, SI, Y2) \
	AHLANE8(off, R11, DI, Y3) \
	ADDQ         AX, DX

// func accHeadsAVX(w *[4]*float32, n int, v *[4]*float32, hd int, dst *[4]*float32)
//
// accHeadsAVX512 on eight columns at a time, over hd&^7, with head h's
// eight in Y<h>; keys go eight at a time with the same all-nonzero test,
// and any other block and the last n%8 keys blend each add in under its
// weight's mask.
TEXT ·accHeadsAVX(SB), NOSPLIT, $0-40
	MOVQ         w+0(FP), AX
	MOVQ         0(AX), R8
	MOVQ         8(AX), R9
	MOVQ         16(AX), R10
	MOVQ         24(AX), R11
	MOVQ         v+16(FP), AX
	MOVQ         0(AX), R12
	MOVQ         8(AX), R13
	MOVQ         16(AX), SI
	MOVQ         24(AX), DI
	MOVQ         n+8(FP), BX
	ANDQ         $~7, BX                 // BX: keys in whole blocks of 8
	MOVQ         hd+24(FP), AX
	SHLQ         $2, AX                  // AX: row stride in bytes
	VXORPS       Y15, Y15, Y15
	XORQ         R14, R14                // R14: column group offset in bytes

a8Cols:
	MOVQ         dst+32(FP), CX
	MOVQ         0(CX), DX
	VMOVUPS      (DX)(R14*1), Y0
	MOVQ         8(CX), DX
	VMOVUPS      (DX)(R14*1), Y1
	MOVQ         16(CX), DX
	VMOVUPS      (DX)(R14*1), Y2
	MOVQ         24(CX), DX
	VMOVUPS      (DX)(R14*1), Y3
	XORQ         CX, CX
	MOVQ         R14, DX

a8Keys:
	CMPQ         CX, BX
	JGE          a8Tail
	VCMPPS       $0, (R8)(CX*4), Y15, Y4 // keys whose weight is ±0
	VCMPPS       $0, (R9)(CX*4), Y15, Y5
	VORPS        Y5, Y4, Y4
	VCMPPS       $0, (R10)(CX*4), Y15, Y5
	VORPS        Y5, Y4, Y4
	VCMPPS       $0, (R11)(CX*4), Y15, Y5
	VORPS        Y5, Y4, Y4
	VPTEST       Y4, Y4
	JNZ          a8Sparse
	AHKEY8(0)
	AHKEY8(4)
	AHKEY8(8)
	AHKEY8(12)
	AHKEY8(16)
	AHKEY8(20)
	AHKEY8(24)
	AHKEY8(28)
	ADDQ         $8, CX
	JMP          a8Keys

a8Sparse:
	AHKEYM8(0)
	AHKEYM8(4)
	AHKEYM8(8)
	AHKEYM8(12)
	AHKEYM8(16)
	AHKEYM8(20)
	AHKEYM8(24)
	AHKEYM8(28)
	ADDQ         $8, CX
	JMP          a8Keys

a8Tail:
	CMPQ         CX, n+8(FP)
	JGE          a8Store
	AHKEYM8(0)
	INCQ         CX
	JMP          a8Tail

a8Store:
	MOVQ         dst+32(FP), CX
	MOVQ         0(CX), DX
	VMOVUPS      Y0, (DX)(R14*1)
	MOVQ         8(CX), DX
	VMOVUPS      Y1, (DX)(R14*1)
	MOVQ         16(CX), DX
	VMOVUPS      Y2, (DX)(R14*1)
	MOVQ         24(CX), DX
	VMOVUPS      Y3, (DX)(R14*1)
	ADDQ         $32, R14
	MOVQ         AX, CX
	ANDQ         $~31, CX                // bytes of hd&^7 columns
	CMPQ         R14, CX
	JLT          a8Cols

	VZEROUPPER
	RET

// func dotBlockAVX512(qT, keys *float32, hd, stride, n int, scale float32, out *float32)
//
// dotBlockAVX for the first n&^15 keys, sixteen keys to a register: per
// k, the sixteen keys' k-th elements, one contiguous run in the
// dim-major layout, are loaded once and multiplied by lane i's broadcast
// qT[k*8+i] into lane i's accumulator Z<i> (VMULPS then VADDPS, from +0
// in increasing k, the key the first operand as in dotBlockAVX). The
// finished sums are scaled and transposed to the key-major block layout:
// VUNPCKLPS/VUNPCKHPS and VUNPCKLPD/VUNPCKHPD within 128-bit lanes leave
// key 4l+j's lanes 0-3 and 4-7 in lane l of two registers, and two rounds
// of VSHUFF32X4 pair them up, two keys to an output register.
TEXT ·dotBlockAVX512(SB), NOSPLIT, $0-56
	MOVQ         qT+0(FP), AX
	MOVQ         keys+8(FP), SI
	MOVQ         hd+16(FP), DX
	MOVQ         stride+24(FP), R12
	SHLQ         $2, R12                 // R12: dimension stride in bytes
	MOVQ         n+32(FP), BX
	ANDQ         $~15, BX
	VBROADCASTSS scale+40(FP), Z31
	MOVQ         out+48(FP), DI

dbz16:
	TESTQ        BX, BX
	JZ           dbzDone
	VPXORD       Z0, Z0, Z0
	VPXORD       Z1, Z1, Z1
	VPXORD       Z2, Z2, Z2
	VPXORD       Z3, Z3, Z3
	VPXORD       Z4, Z4, Z4
	VPXORD       Z5, Z5, Z5
	VPXORD       Z6, Z6, Z6
	VPXORD       Z7, Z7, Z7
	MOVQ         SI, R10                 // element k of keys r..r+15
	MOVQ         AX, R8
	MOVQ         DX, CX

dbz16Dim:
	VMOVUPS      (R10), Z24
	VMULPS.BCST  (R8), Z24, Z16
	VADDPS       Z16, Z0, Z0
	VMULPS.BCST  4(R8), Z24, Z17
	VADDPS       Z17, Z1, Z1
	VMULPS.BCST  8(R8), Z24, Z18
	VADDPS       Z18, Z2, Z2
	VMULPS.BCST  12(R8), Z24, Z19
	VADDPS       Z19, Z3, Z3
	VMULPS.BCST  16(R8), Z24, Z20
	VADDPS       Z20, Z4, Z4
	VMULPS.BCST  20(R8), Z24, Z21
	VADDPS       Z21, Z5, Z5
	VMULPS.BCST  24(R8), Z24, Z22
	VADDPS       Z22, Z6, Z6
	VMULPS.BCST  28(R8), Z24, Z23
	VADDPS       Z23, Z7, Z7
	ADDQ         R12, R10
	ADDQ         $32, R8
	DECQ         CX
	JNZ          dbz16Dim

	VMULPS       Z31, Z0, Z0
	VMULPS       Z31, Z1, Z1
	VMULPS       Z31, Z2, Z2
	VMULPS       Z31, Z3, Z3
	VMULPS       Z31, Z4, Z4
	VMULPS       Z31, Z5, Z5
	VMULPS       Z31, Z6, Z6
	VMULPS       Z31, Z7, Z7
	VUNPCKLPS    Z1, Z0, Z8              // lanes 0,1 of keys 4l, 4l+1
	VUNPCKHPS    Z1, Z0, Z9              // lanes 0,1 of keys 4l+2, 4l+3
	VUNPCKLPS    Z3, Z2, Z10
	VUNPCKHPS    Z3, Z2, Z11
	VUNPCKLPS    Z5, Z4, Z12
	VUNPCKHPS    Z5, Z4, Z13
	VUNPCKLPS    Z7, Z6, Z14
	VUNPCKHPS    Z7, Z6, Z15
	VUNPCKLPD    Z10, Z8, Z0             // lanes 0-3 of key 4l
	VUNPCKHPD    Z10, Z8, Z1             // lanes 0-3 of key 4l+1
	VUNPCKLPD    Z11, Z9, Z2             // ... of key 4l+2
	VUNPCKHPD    Z11, Z9, Z3             // ... of key 4l+3
	VUNPCKLPD    Z14, Z12, Z4            // lanes 4-7 of key 4l
	VUNPCKHPD    Z14, Z12, Z5
	VUNPCKLPD    Z15, Z13, Z6
	VUNPCKHPD    Z15, Z13, Z7
	VSHUFF32X4   $0x44, Z4, Z0, Z8       // keys 0 and 4: lanes 0-3, then 4-7
	VSHUFF32X4   $0xEE, Z4, Z0, Z9       // keys 8 and 12
	VSHUFF32X4   $0x44, Z5, Z1, Z10      // keys 1 and 5
	VSHUFF32X4   $0xEE, Z5, Z1, Z11      // keys 9 and 13
	VSHUFF32X4   $0x88, Z10, Z8, Z12     // keys 0, 1
	VMOVUPS      Z12, (DI)
	VSHUFF32X4   $0xDD, Z10, Z8, Z13     // keys 4, 5
	VMOVUPS      Z13, 128(DI)
	VSHUFF32X4   $0x88, Z11, Z9, Z12     // keys 8, 9
	VMOVUPS      Z12, 256(DI)
	VSHUFF32X4   $0xDD, Z11, Z9, Z13     // keys 12, 13
	VMOVUPS      Z13, 384(DI)
	VSHUFF32X4   $0x44, Z6, Z2, Z8       // keys 2 and 6
	VSHUFF32X4   $0xEE, Z6, Z2, Z9       // keys 10 and 14
	VSHUFF32X4   $0x44, Z7, Z3, Z10      // keys 3 and 7
	VSHUFF32X4   $0xEE, Z7, Z3, Z11      // keys 11 and 15
	VSHUFF32X4   $0x88, Z10, Z8, Z12     // keys 2, 3
	VMOVUPS      Z12, 64(DI)
	VSHUFF32X4   $0xDD, Z10, Z8, Z13     // keys 6, 7
	VMOVUPS      Z13, 192(DI)
	VSHUFF32X4   $0x88, Z11, Z9, Z12     // keys 10, 11
	VMOVUPS      Z12, 320(DI)
	VSHUFF32X4   $0xDD, Z11, Z9, Z13     // keys 14, 15
	VMOVUPS      Z13, 448(DI)
	ADDQ         $512, DI
	ADDQ         $64, SI
	SUBQ         $16, BX
	JMP          dbz16

dbzDone:
	VZEROUPPER
	RET

// The blocked value kernels on the 512-bit tier: accBlockAVX with
// sixteen columns per register, lane i's in Z<i>, and a masked last
// group, so every column runs on the kernel. The row's columns are
// loaded once per key; each lane's term is its broadcast weight times
// them (the weight the first operand, as in accumRows), added to the
// lane's accumulator.

// ACCZ adds lane i's term, weight at off(R8), to acc.
#define ACCZ(off, acc, t) \
	VBROADCASTSS off(R8), t \
	VMULPS       Z8, t, t \
	VADDPS       t, acc, acc

// ACCZM is ACCZ under the opmask of the weight's being other than ±0.
#define ACCZM(off, acc) \
	VBROADCASTSS off(R8), Z16 \
	VCMPPS       $4, Z31, Z16, K2 \
	VMULPS       Z8, Z16, Z16 \
	VADDPS       Z16, acc, K2, acc

// ACCZCOLS sets K7 to the column group at R14 of rows R12 bytes long,
// sixteen columns or the last hd%16, clobbering CX and DX.
#define ACCZCOLS \
	MOVQ         R12, CX \
	SUBQ         R14, CX \
	SHRQ         $2, CX \
	MOVL         $0xffff, DX \
	CMPQ         CX, $16 \
	JGE          4(PC) \
	MOVL         $1, DX \
	SHLL         CX, DX \
	DECL         DX \
	KMOVW        DX, K7

// func accBlockAVX512(w *float32, n int, v *float32, hd int, acc *float32)
//
// acc[i*hd+d] += w[r*8+i]*v[r*hd+d] for i < 8 and d < hd, rows in
// increasing r, rounded product then add, and a lane whose weight is ±0
// skipped. A key whose eight weights are all other than ±0 adds with
// no per-lane test.
TEXT ·accBlockAVX512(SB), NOSPLIT, $0-40
	MOVQ         w+0(FP), AX
	MOVQ         n+8(FP), BX
	MOVQ         v+16(FP), SI
	MOVQ         hd+24(FP), R12
	SHLQ         $2, R12                 // R12: row and lane stride in bytes
	MOVQ         acc+32(FP), DI
	VPXORD       Z31, Z31, Z31
	MOVL         $0xff, CX
	KMOVW        CX, K6                  // a key's eight weights
	XORQ         R14, R14                // R14: column group offset in bytes

abzCols:
	ACCZCOLS
	LEAQ         (DI)(R14*1), R9         // lanes 0, 1, 2
	LEAQ         (R9)(R12*4), R10        // lanes 4, 5, 6
	LEAQ         (R9)(R12*2), R11
	ADDQ         R12, R11                // lanes 3 and 7 (via R12*4)
	VMOVUPS.Z    (R9), K7, Z0
	VMOVUPS.Z    (R9)(R12*1), K7, Z1
	VMOVUPS.Z    (R9)(R12*2), K7, Z2
	VMOVUPS.Z    (R11), K7, Z3
	VMOVUPS.Z    (R10), K7, Z4
	VMOVUPS.Z    (R10)(R12*1), K7, Z5
	VMOVUPS.Z    (R10)(R12*2), K7, Z6
	VMOVUPS.Z    (R11)(R12*4), K7, Z7
	MOVQ         AX, R8
	LEAQ         (SI)(R14*1), DX
	MOVQ         BX, CX

abzRow:
	TESTQ        CX, CX
	JZ           abzStore
	VMOVUPS.Z    (DX), K7, Z8
	VCMPPS       $0, (R8), Z31, K6, K1   // lanes whose weight is ±0
	KORTESTW     K1, K1
	JNZ          abzSparse
	ACCZ(0, Z0, Z16)
	ACCZ(4, Z1, Z17)
	ACCZ(8, Z2, Z18)
	ACCZ(12, Z3, Z19)
	ACCZ(16, Z4, Z20)
	ACCZ(20, Z5, Z21)
	ACCZ(24, Z6, Z22)
	ACCZ(28, Z7, Z23)

abzNext:
	ADDQ         $32, R8
	ADDQ         R12, DX
	DECQ         CX
	JMP          abzRow

abzSparse:
	ACCZM(0, Z0)
	ACCZM(4, Z1)
	ACCZM(8, Z2)
	ACCZM(12, Z3)
	ACCZM(16, Z4)
	ACCZM(20, Z5)
	ACCZM(24, Z6)
	ACCZM(28, Z7)
	JMP          abzNext

abzStore:
	VMOVUPS      Z0, K7, (R9)
	VMOVUPS      Z1, K7, (R9)(R12*1)
	VMOVUPS      Z2, K7, (R9)(R12*2)
	VMOVUPS      Z3, K7, (R11)
	VMOVUPS      Z4, K7, (R10)
	VMOVUPS      Z5, K7, (R10)(R12*1)
	VMOVUPS      Z6, K7, (R10)(R12*2)
	VMOVUPS      Z7, K7, (R11)(R12*4)
	ADDQ         $64, R14
	CMPQ         R14, R12
	JLT          abzCols

	VZEROUPPER
	RET

// func accBlock4AVX512(w *float32, n int, v *float32, hd int, acc *float32)
//
// accBlockAVX512 over lanes 0-3 only.
TEXT ·accBlock4AVX512(SB), NOSPLIT, $0-40
	MOVQ         w+0(FP), AX
	MOVQ         n+8(FP), BX
	MOVQ         v+16(FP), SI
	MOVQ         hd+24(FP), R12
	SHLQ         $2, R12                 // R12: row and lane stride in bytes
	MOVQ         acc+32(FP), DI
	VPXORD       Z31, Z31, Z31
	MOVL         $0x0f, CX
	KMOVW        CX, K6                  // a key's first four weights
	XORQ         R14, R14                // R14: column group offset in bytes

a4zCols:
	ACCZCOLS
	LEAQ         (DI)(R14*1), R9         // lanes 0, 1, 2
	LEAQ         (R9)(R12*2), R11
	ADDQ         R12, R11                // lane 3
	VMOVUPS.Z    (R9), K7, Z0
	VMOVUPS.Z    (R9)(R12*1), K7, Z1
	VMOVUPS.Z    (R9)(R12*2), K7, Z2
	VMOVUPS.Z    (R11), K7, Z3
	MOVQ         AX, R8
	LEAQ         (SI)(R14*1), DX
	MOVQ         BX, CX

a4zRow:
	TESTQ        CX, CX
	JZ           a4zStore
	VMOVUPS.Z    (DX), K7, Z8
	VCMPPS       $0, (R8), Z31, K6, K1   // lanes whose weight is ±0
	KORTESTW     K1, K1
	JNZ          a4zSparse
	ACCZ(0, Z0, Z16)
	ACCZ(4, Z1, Z17)
	ACCZ(8, Z2, Z18)
	ACCZ(12, Z3, Z19)

a4zNext:
	ADDQ         $32, R8
	ADDQ         R12, DX
	DECQ         CX
	JMP          a4zRow

a4zSparse:
	ACCZM(0, Z0)
	ACCZM(4, Z1)
	ACCZM(8, Z2)
	ACCZM(12, Z3)
	JMP          a4zNext

a4zStore:
	VMOVUPS      Z0, K7, (R9)
	VMOVUPS      Z1, K7, (R9)(R12*1)
	VMOVUPS      Z2, K7, (R9)(R12*2)
	VMOVUPS      Z3, K7, (R11)
	ADDQ         $64, R14
	CMPQ         R14, R12
	JLT          a4zCols

	VZEROUPPER
	RET
