//go:build amd64 && !amd64.v3

#include "textflag.h"

// Packed-panel kernels (see packed.go). Y0-Y7 hold the accumulators, one
// lane per output row of the panel: Y0-Y3 rows 0-31 for x0, Y4-Y7 for
// x1. Each k step loads the panel's 32 weights of column k (Y10-Y13),
// broadcasts x0[k] and x1[k] (Y8, Y9), and adds each rounded product to
// its accumulator: VMULPS then VADDPS, never a fused multiply-add, so
// every lane is the scalar chain s += w[k]*x[k] to the bit.

// func panelDot2(panel, x0, x1 *float32, k int, out0, out1 *float32)
TEXT ·panelDot2(SB), NOSPLIT, $0-48
	MOVQ    panel+0(FP), SI
	MOVQ    x0+8(FP), AX
	MOVQ    x1+16(FP), BX
	MOVQ    k+24(FP), CX
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	VXORPS  Y4, Y4, Y4
	VXORPS  Y5, Y5, Y5
	VXORPS  Y6, Y6, Y6
	VXORPS  Y7, Y7, Y7
	TESTQ   CX, CX
	JLE     store2

loop2:
	VBROADCASTSS (AX), Y8
	VBROADCASTSS (BX), Y9
	VMOVUPS (SI), Y10
	VMOVUPS 32(SI), Y11
	VMOVUPS 64(SI), Y12
	VMOVUPS 96(SI), Y13
	VMULPS  Y10, Y8, Y14
	VADDPS  Y14, Y0, Y0
	VMULPS  Y11, Y8, Y15
	VADDPS  Y15, Y1, Y1
	VMULPS  Y12, Y8, Y14
	VADDPS  Y14, Y2, Y2
	VMULPS  Y13, Y8, Y15
	VADDPS  Y15, Y3, Y3
	VMULPS  Y10, Y9, Y14
	VADDPS  Y14, Y4, Y4
	VMULPS  Y11, Y9, Y15
	VADDPS  Y15, Y5, Y5
	VMULPS  Y12, Y9, Y14
	VADDPS  Y14, Y6, Y6
	VMULPS  Y13, Y9, Y15
	VADDPS  Y15, Y7, Y7
	ADDQ    $128, SI
	ADDQ    $4, AX
	ADDQ    $4, BX
	DECQ    CX
	JNZ     loop2

store2:
	MOVQ    out0+32(FP), DI
	MOVQ    out1+40(FP), DX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	VMOVUPS Y6, 64(DX)
	VMOVUPS Y7, 96(DX)
	VZEROUPPER
	RET

// func panelDot1(panel, x0 *float32, k int, out0 *float32)
TEXT ·panelDot1(SB), NOSPLIT, $0-32
	MOVQ    panel+0(FP), SI
	MOVQ    x0+8(FP), AX
	MOVQ    k+16(FP), CX
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	TESTQ   CX, CX
	JLE     store1

loop1:
	VBROADCASTSS (AX), Y8
	VMOVUPS (SI), Y10
	VMOVUPS 32(SI), Y11
	VMOVUPS 64(SI), Y12
	VMOVUPS 96(SI), Y13
	VMULPS  Y10, Y8, Y14
	VADDPS  Y14, Y0, Y0
	VMULPS  Y11, Y8, Y15
	VADDPS  Y15, Y1, Y1
	VMULPS  Y12, Y8, Y14
	VADDPS  Y14, Y2, Y2
	VMULPS  Y13, Y8, Y15
	VADDPS  Y15, Y3, Y3
	ADDQ    $128, SI
	ADDQ    $4, AX
	DECQ    CX
	JNZ     loop1

store1:
	MOVQ    out0+24(FP), DI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// The 512-bit tier (DESIGN.md §22): the same per-lane chains on ZMM
// registers, sixteen output rows per register, AVX-512F only.
//
// func panelDot4(panel, x *float32, k int, out *float32, ldo int)
//
// panelDot2 for four input rows x[0:k], x[k:2k], x[2k:3k], x[3k:4k],
// writing row r's 32 results at out[r*ldo:]. Z0-Z7 hold the
// accumulators, two per row; each k step loads the panel's column as two
// 16-lane vectors and multiplies it by each row's broadcast x[k].
TEXT ·panelDot4(SB), NOSPLIT, $0-40
	MOVQ    panel+0(FP), SI
	MOVQ    x+8(FP), AX
	MOVQ    k+16(FP), CX
	LEAQ    (AX)(CX*4), BX
	LEAQ    (BX)(CX*4), DX
	LEAQ    (DX)(CX*4), R8
	VPXORD  Z0, Z0, Z0
	VPXORD  Z1, Z1, Z1
	VPXORD  Z2, Z2, Z2
	VPXORD  Z3, Z3, Z3
	VPXORD  Z4, Z4, Z4
	VPXORD  Z5, Z5, Z5
	VPXORD  Z6, Z6, Z6
	VPXORD  Z7, Z7, Z7
	TESTQ   CX, CX
	JLE     store4

loop4:
	VMOVUPS (SI), Z8
	VMOVUPS 64(SI), Z9
	VMULPS.BCST (AX), Z8, Z10
	VMULPS.BCST (AX), Z9, Z11
	VADDPS  Z10, Z0, Z0
	VADDPS  Z11, Z1, Z1
	VMULPS.BCST (BX), Z8, Z12
	VMULPS.BCST (BX), Z9, Z13
	VADDPS  Z12, Z2, Z2
	VADDPS  Z13, Z3, Z3
	VMULPS.BCST (DX), Z8, Z14
	VMULPS.BCST (DX), Z9, Z15
	VADDPS  Z14, Z4, Z4
	VADDPS  Z15, Z5, Z5
	VMULPS.BCST (R8), Z8, Z10
	VMULPS.BCST (R8), Z9, Z11
	VADDPS  Z10, Z6, Z6
	VADDPS  Z11, Z7, Z7
	ADDQ    $128, SI
	ADDQ    $4, AX
	ADDQ    $4, BX
	ADDQ    $4, DX
	ADDQ    $4, R8
	DECQ    CX
	JNZ     loop4

store4:
	MOVQ    out+24(FP), DI
	MOVQ    ldo+32(FP), R9
	SHLQ    $2, R9
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	ADDQ    R9, DI
	VMOVUPS Z2, (DI)
	VMOVUPS Z3, 64(DI)
	ADDQ    R9, DI
	VMOVUPS Z4, (DI)
	VMOVUPS Z5, 64(DI)
	ADDQ    R9, DI
	VMOVUPS Z6, (DI)
	VMOVUPS Z7, 64(DI)
	VZEROUPPER
	RET

// func panelDot1x2(panel, x0 *float32, k int, out0 *float32)
//
// panelDot1 over two consecutive panels at once: panel p at panel and
// panel p+1 at panel+PanelRows*k, their 64 results at out0[0:64]. The
// four accumulators Z0-Z3 are four independent chains, twice panelDot1's
// lanes in flight at the same add latency.
TEXT ·panelDot1x2(SB), NOSPLIT, $0-32
	MOVQ    panel+0(FP), SI
	MOVQ    x0+8(FP), AX
	MOVQ    k+16(FP), CX
	MOVQ    CX, DX
	SHLQ    $7, DX
	ADDQ    SI, DX
	VPXORD  Z0, Z0, Z0
	VPXORD  Z1, Z1, Z1
	VPXORD  Z2, Z2, Z2
	VPXORD  Z3, Z3, Z3
	TESTQ   CX, CX
	JLE     store1x2

loop1x2:
	VBROADCASTSS (AX), Z8
	VMULPS  (SI), Z8, Z10
	VMULPS  64(SI), Z8, Z11
	VMULPS  (DX), Z8, Z12
	VMULPS  64(DX), Z8, Z13
	VADDPS  Z10, Z0, Z0
	VADDPS  Z11, Z1, Z1
	VADDPS  Z12, Z2, Z2
	VADDPS  Z13, Z3, Z3
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $4, AX
	DECQ    CX
	JNZ     loop1x2

store1x2:
	MOVQ    out0+24(FP), DI
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VZEROUPPER
	RET

// func panelDot2x2(panel, x0, x1 *float32, k int, out0, out1 *float32)
//
// panelDot2 over two consecutive panels at once, the second at
// panel+PanelRows*k: row x0's 2*PanelRows results at out0, row x1's at
// out1. Z0-Z3 accumulate x0, Z4-Z7 x1.
TEXT ·panelDot2x2(SB), NOSPLIT, $0-48
	MOVQ    panel+0(FP), SI
	MOVQ    x0+8(FP), AX
	MOVQ    x1+16(FP), BX
	MOVQ    k+24(FP), CX
	MOVQ    CX, DX
	SHLQ    $7, DX
	ADDQ    SI, DX
	VPXORD  Z0, Z0, Z0
	VPXORD  Z1, Z1, Z1
	VPXORD  Z2, Z2, Z2
	VPXORD  Z3, Z3, Z3
	VPXORD  Z4, Z4, Z4
	VPXORD  Z5, Z5, Z5
	VPXORD  Z6, Z6, Z6
	VPXORD  Z7, Z7, Z7
	TESTQ   CX, CX
	JLE     store2x2

loop2x2:
	VMOVUPS (SI), Z8
	VMOVUPS 64(SI), Z9
	VMOVUPS (DX), Z10
	VMOVUPS 64(DX), Z11
	VBROADCASTSS (AX), Z12
	VBROADCASTSS (BX), Z13
	VMULPS  Z8, Z12, Z14
	VMULPS  Z9, Z12, Z15
	VMULPS  Z10, Z12, Z16
	VMULPS  Z11, Z12, Z17
	VADDPS  Z14, Z0, Z0
	VADDPS  Z15, Z1, Z1
	VADDPS  Z16, Z2, Z2
	VADDPS  Z17, Z3, Z3
	VMULPS  Z8, Z13, Z14
	VMULPS  Z9, Z13, Z15
	VMULPS  Z10, Z13, Z16
	VMULPS  Z11, Z13, Z17
	VADDPS  Z14, Z4, Z4
	VADDPS  Z15, Z5, Z5
	VADDPS  Z16, Z6, Z6
	VADDPS  Z17, Z7, Z7
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $4, AX
	ADDQ    $4, BX
	DECQ    CX
	JNZ     loop2x2

store2x2:
	MOVQ    out0+32(FP), DI
	MOVQ    out1+40(FP), R8
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, (R8)
	VMOVUPS Z5, 64(R8)
	VMOVUPS Z6, 128(R8)
	VMOVUPS Z7, 192(R8)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL    eaxArg+0(FP), AX
	MOVL    ecxArg+4(FP), CX
	CPUID
	MOVL    AX, eax+8(FP)
	MOVL    BX, ebx+12(FP)
	MOVL    CX, ecx+16(FP)
	MOVL    DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL    $0, CX
	XGETBV
	MOVL    AX, eax+0(FP)
	MOVL    DX, edx+4(FP)
	RET
