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
