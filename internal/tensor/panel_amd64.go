//go:build amd64 && !amd64.v3

package tensor

// The packed kernel is built only where Go's own float32 loops round
// like it does. From GOAMD64=v3 on, the compiler may fuse MatMulT's
// s += w*x into a fused multiply-add, which rounds once where the
// kernel's VMULPS+VADDPS rounds twice; those builds use MatMulT alone.

// hasPackedKernel is fixed at start-up from CPUID: the CPU must support
// AVX2 and the OS must save the YMM registers across context switches.
var hasPackedKernel = detectAVX2()

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
