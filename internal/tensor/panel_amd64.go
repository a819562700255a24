//go:build amd64 && !amd64.v3

package tensor

// The packed kernel is built only where Go's own float32 loops round
// like it does. From GOAMD64=v3 on, the compiler may fuse MatMulT's
// s += w*x into a fused multiply-add, which rounds once where the
// kernel's VMULPS+VADDPS rounds twice; those builds use MatMulT alone.

// hasPackedKernel is fixed at start-up from CPUID: the CPU must support
// AVX2 and the OS must save the YMM registers across context switches.
var hasPackedKernel = detectAVX2()

// hasAVX512 is fixed at start-up like hasPackedKernel: on an AVX2 host,
// the CPU must also support AVX-512F and the OS must save the opmask and
// ZMM registers. It turns on the 512-bit tier of the panel kernels and,
// behind the exp probe, of the exponentials (DESIGN.md §22).
var hasAVX512 = hasPackedKernel && detectAVX512()

// panelTier is the tier MatMulTPacked runs on.
var panelTier = topTier(hasPackedKernel, hasAVX512)

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves SSE and AVX state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func detectAVX512() bool {
	_, ebx, _, _ := cpuid(7, 0)
	xcr0, _ := xgetbv()
	return avx512Usable(ebx, xcr0)
}

// avx512Usable reports whether the 512-bit kernels may run, given CPUID
// leaf 7's EBX and XCR0's low half: the CPU must support AVX-512F (the
// kernels use no other AVX-512 subset), and the OS must save SSE and AVX
// state (XCR0 bits 1-2) and the opmask, upper-ZMM and ZMM16-31 state
// (bits 5-7).
func avx512Usable(leaf7ebx, xcr0 uint32) bool {
	const avx512f = 1 << 16
	const state = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	return leaf7ebx&avx512f != 0 && xcr0&state == state
}

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low and high halves of extended control register 0.
func xgetbv() (eax, edx uint32)

// panelDot2 computes, for r in [0, PanelRows),
//
//	out0[r] = sum over k of panel[k*PanelRows+r]*x0[k]
//	out1[r] = sum over k of panel[k*PanelRows+r]*x1[k]
//
// each as a sequential float32 chain from +0 in increasing k, product
// rounded before the add.
//
//go:noescape
func panelDot2(panel, x0, x1 *float32, k int, out0, out1 *float32)

// panelDot1 is panelDot2 for a single input row.
//
//go:noescape
func panelDot1(panel, x0 *float32, k int, out0 *float32)

// panelDot4 is panelDot2 for four input rows at x, x+k, x+2k and x+3k,
// row r's results at out[r*ldo:][:PanelRows]: the same chains, sixteen
// lanes per register. AVX-512F.
//
//go:noescape
func panelDot4(panel, x *float32, k int, out *float32, ldo int)

// panelDot1x2 is panelDot1 over two consecutive panels, the second at
// panel+PanelRows*k, with their 2*PanelRows results at out0. AVX-512F.
//
//go:noescape
func panelDot1x2(panel, x0 *float32, k int, out0 *float32)

// panelDot2x2 is panelDot2 over two consecutive panels, the second at
// panel+PanelRows*k, with each row's 2*PanelRows results at out0 and out1.
// AVX-512F.
//
//go:noescape
func panelDot2x2(panel, x0, x1 *float32, k int, out0, out1 *float32)
