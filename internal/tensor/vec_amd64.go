//go:build amd64 && !amd64.v3

package tensor

import "math"

// The vector kernels share the packed kernel's build constraint: from
// GOAMD64=v3 on, the compiler may fuse the scalar loops' multiply-adds,
// and the scalar loops are the oracle the kernels must match.

// hasExpKernel is fixed at start-up: the CPU must run the AVX2 kernels
// and support FMA, and the exp kernel must reproduce math.Exp bit for bit
// on a fixed probe set. The probe is what ties the kernel to this Go
// release's math.Exp: it fails when math.Exp takes its non-FMA path
// (GODEBUG=cpu.fma=off) or when a Go release changes archExp, and the
// scalar loops then run instead.
var hasExpKernel = hasPackedKernel && detectFMA() && expProbeMatches()

func detectFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

// expProbeMatches compares the exp kernel with math.Exp on a fixed set of
// arguments spread over the kernel's range, bit for bit. On math.Exp's
// non-FMA path 77 of the 1024 probes round differently (Go 1.24), so the
// probe cannot pass there.
func expProbeMatches() bool {
	var x, want [1024]float64
	for i := range x {
		// Alternating signs, magnitudes from 2^-10 to 2^9, plus a sweep
		// of multiples of 0.69 up to 706.
		v := math.Ldexp(1+float64(i%97)/97, i%19-10)
		if i%40 == 39 {
			v = float64(i) * 0.69
		}
		if i%2 == 1 {
			v = -v
		}
		x[i] = v
		want[i] = math.Exp(v)
	}
	x[0], want[0] = -708, math.Exp(-708)
	x[1], want[1] = 709, math.Exp(709)
	if expAVX(&x[0], len(x)) != len(x) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// expAVX replaces x[i] by math.Exp(x[i]) for i < n&^3, in blocks of four,
// and returns the number done: n&^3, or the start of the first block
// holding an argument outside the kernel's range (left unchanged).
//
//go:noescape
func expAVX(x *float64, n int) int

// expShiftAVX is the softmax pass: for i < n&^3, in blocks of four,
// e = math.Exp(float64(x[i]-maxv)), x[i] = float32(e) and *sum += e in
// index order. It returns the number done, stopping like expAVX.
//
//go:noescape
func expShiftAVX(x *float32, n int, maxv float32, sum *float64) int

// siluAVX applies x[i] = x[i] / (1 + float32(math.Exp(float64(-x[i]))))
// for i < n&^3, in blocks of four, and returns the number done, stopping
// like expAVX.
//
//go:noescape
func siluAVX(x *float32, n int) int

// dotRowsAVX sets out[r] = Dot(q, page[r*hd:][:hd]) for r < n&^7, with q
// of length hd, a multiple of 8, and returns n&^7.
//
//go:noescape
func dotRowsAVX(q, page *float32, hd, n int, out *float32) int

// attnAccumAVX adds scores[r]*page[r*hd+d] to dst[d] for d < hd&^3 over
// the n rows in increasing r, skipping zero weights, and returns hd&^3.
//
//go:noescape
func attnAccumAVX(scores *float32, n int, page *float32, hd int, dst *float32) int

// maxAVX returns the largest of x[0:n&^7], n >= 8, and ok false if any of
// those is NaN. Between +0 and -0 it may return either.
//
//go:noescape
func maxAVX(x *float32, n int) (m float32, ok bool)

// scaleAVX multiplies x[i] by a for i < n&^7.
//
//go:noescape
func scaleAVX(x *float32, n int, a float32)
