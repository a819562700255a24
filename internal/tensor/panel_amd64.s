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
