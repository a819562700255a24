//go:build amd64 && !amd64.v3

package tensor

import (
	"os"
	"strings"
	"testing"
)

// godebugSetsCPU reports whether GODEBUG changes CPU feature detection
// (cpu.fma=off and the like), which math.Exp follows.
func godebugSetsCPU() bool { return strings.Contains(os.Getenv("GODEBUG"), "cpu.") }

// TestExpKernelActive fails when an AVX2+FMA host runs the scalar
// exponential: a Go release whose math.Exp no longer matches the kernel
// would otherwise turn it off without a trace.
func TestExpKernelActive(t *testing.T) {
	if !hasPackedKernel || !detectFMA() {
		t.Skip("CPU lacks AVX2 or FMA")
	}
	if godebugSetsCPU() {
		t.Skip("GODEBUG changes CPU features")
	}
	if !hasExpKernel {
		t.Fatal("exp kernel disabled on an AVX2+FMA host: its probe no longer matches math.Exp")
	}
}

// TestExpKernelOffWithoutFMA checks the probe under GODEBUG=cpu.fma=off,
// where math.Exp takes its non-FMA path and the kernel must stay off.
func TestExpKernelOffWithoutFMA(t *testing.T) {
	if !strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		t.Skip("needs GODEBUG=cpu.fma=off")
	}
	if hasExpKernel {
		t.Fatal("exp kernel active although math.Exp runs without FMA")
	}
}

// TestPowKernelActive fails when an AVX2+FMA host runs the scalar pow: a
// Go release whose math.Pow, math.Log or math.Exp no longer matches the
// kernel would otherwise turn it off without a trace.
func TestPowKernelActive(t *testing.T) {
	if !hasPackedKernel || !detectFMA() {
		t.Skip("CPU lacks AVX2 or FMA")
	}
	if godebugSetsCPU() {
		t.Skip("GODEBUG changes CPU features")
	}
	if !hasPowKernel {
		t.Fatal("pow kernel disabled on an AVX2+FMA host: its probe no longer matches math.Pow")
	}
}

// TestPowKernelOffWithoutFMA checks that the pow kernel stays off under
// GODEBUG=cpu.fma=off, where math.Pow's exponential takes its non-FMA path.
func TestPowKernelOffWithoutFMA(t *testing.T) {
	if !strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		t.Skip("needs GODEBUG=cpu.fma=off")
	}
	if hasPowKernel {
		t.Fatal("pow kernel active although math.Exp runs without FMA")
	}
}

// TestAVX512NeedsZMMState feeds avx512Usable CPUID and XGETBV results: the
// 512-bit tier needs AVX-512F and every state bit it uses saved by the
// OS, so an OS that does not save the ZMM registers keeps it off (and
// the AVX2 tier on).
func TestAVX512NeedsZMMState(t *testing.T) {
	const f, sse, avx, opmask, zmmHi256, hi16zmm = 1 << 16, 1 << 1, 1 << 2, 1 << 5, 1 << 6, 1 << 7
	all := uint32(1 | sse | avx | opmask | zmmHi256 | hi16zmm)
	for _, tc := range []struct {
		name     string
		ebx      uint32
		xcr0     uint32
		expected bool
	}{
		{"AVX-512F with full state", f, all, true},
		{"no AVX-512F", 0, all, false},
		{"AVX-512 state not saved", f, 1 | sse | avx, false},
		{"no opmask state", f, all &^ opmask, false},
		{"no upper ZMM state", f, all &^ zmmHi256, false},
		{"no ZMM16-31 state", f, all &^ hi16zmm, false},
		{"no AVX state", f, all &^ avx, false},
	} {
		if got := avx512Usable(tc.ebx, tc.xcr0); got != tc.expected {
			t.Errorf("%s: avx512Usable(%#x, %#x) = %v, want %v", tc.name, tc.ebx, tc.xcr0, got, tc.expected)
		}
	}
}

// TestExp512KernelActive fails when a host whose CPU and OS run the
// 512-bit tier runs the AVX2 exponentials: EXP8's probe no longer matching
// math.Exp would otherwise turn the tier off without a trace.
func TestExp512KernelActive(t *testing.T) {
	if !hasAVX512 || !detectFMA() {
		t.Skip("CPU or OS lacks AVX-512F, its state, or FMA")
	}
	if godebugSetsCPU() {
		t.Skip("GODEBUG changes CPU features")
	}
	if !hasExp512 {
		t.Fatal("512-bit exp kernel disabled on an AVX-512F+FMA host: its probe no longer matches math.Exp")
	}
}

// TestExp512KernelOffWithoutFMA checks that the 512-bit exponentials stay
// off under GODEBUG=cpu.fma=off, where math.Exp takes its non-FMA path.
func TestExp512KernelOffWithoutFMA(t *testing.T) {
	if !strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		t.Skip("needs GODEBUG=cpu.fma=off")
	}
	if hasExp512 || expTier != scalarTier {
		t.Fatal("512-bit exp kernel active although math.Exp runs without FMA")
	}
	if hasAVX512 && expProbeMatches(expAVX512) {
		t.Fatal("EXP8 passes the probe although math.Exp runs without FMA")
	}
}
