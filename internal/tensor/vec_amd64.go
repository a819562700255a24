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

// hasPowKernel is fixed at start-up like hasExpKernel: the pow kernel
// runs on EXP4 and copies this Go release's math.Pow, math.Log and
// math.Exp step for step, and its probe checks that copy bit for bit.
var hasPowKernel = hasExpKernel && powProbeMatches()

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

// powProbeMatches compares the pow kernel with math.Pow on a fixed set of
// 512 float32 inputs with scrambled mantissas, half of them between 2^-8
// and 1 and half spread over every float32 exponent from -149 to 127, at
// exponents y that cover both of pow's yf branches, an integer y and a y
// below 1: the float64 results bit for bit, and the float32 results as
// their rounding. A change to one rounding step of archLog moves about
// 0.3 % of such results, so a different pow, Log or Exp cannot pass.
func powProbeMatches() bool {
	var x [2 * powChunk]float32
	for i := range x {
		m := float64(uint32(i)*2654435761&(1<<23-1)) / (1 << 23)
		e := i%277 - 149
		if i%2 == 1 {
			e = i%8 - 8 // where sampling probabilities lie, and Log is most sensitive
		}
		x[i] = float32(math.Ldexp(1+m, e))
	}
	var t [powChunk]float64
	for _, y := range []float64{1 / 0.7, 1 / 0.6, 3, 1 / 1.5} {
		yf, yi, ok := powKernelArgs(y)
		if !ok {
			return false
		}
		got := x
		for c := 0; c < len(got); c += powChunk {
			if powVec(got[c:c+powChunk], yf, yi, &t) != powChunk {
				return false
			}
			for i, v := range x[c : c+powChunk] {
				want := math.Pow(float64(v), y)
				if math.Float64bits(t[i]) != math.Float64bits(want) ||
					math.Float32bits(got[c+i]) != math.Float32bits(float32(want)) {
					return false
				}
			}
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

// powLogAVX is the pow kernel's first pass: t[i] = yf*math.Log(x[i]) for
// i < n&^3 and x[i] > 0, in blocks of four (t of a lane with x[i] <= 0 or
// NaN is that of +0). It returns the number done: n&^3, or the start of the
// first block holding +Inf.
//
//go:noescape
func powLogAVX(x *float32, n int, yf float64, t *float64) int

// powExpAVX is the second pass: for i < n&^3, in blocks of four, every
// x[i] > 0 becomes float32(r) for r = math.Pow(float64(x[i]), yi+yf),
// given powLogAVX's t, and t[i] becomes r (float64(x[i]) in the other
// lanes, whose x[i] keep their bits). It returns the number done: n&^3,
// or the start of the first block with a result outside float64's normal
// range (left unchanged).
//
//go:noescape
func powExpAVX(x *float32, t *float64, n int, yi int) int

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

// dotBlockAVX sets out[r*8+i] = Dot(q_i, keys[r*hd:][:hd]) * scale for
// r < n and i < 8, given qT[k*8+i] = q_i[k], hd >= 1.
//
//go:noescape
func dotBlockAVX(qT, keys *float32, hd, n int, scale float32, out *float32)

// accBlockAVX adds w[r*8+i]*v[r*hd+d] to acc[i*hd+d] for i < 8 and
// d < hd&^7 over the n rows in increasing r, skipping ±0 weights, hd >= 8.
//
//go:noescape
func accBlockAVX(w *float32, n int, v *float32, hd int, acc *float32)

// accBlock4AVX is accBlockAVX over lanes 0-3 only.
//
//go:noescape
func accBlock4AVX(w *float32, n int, v *float32, hd int, acc *float32)

// maxBlockAVX sets m[i] to the largest of x[r*8+i] over r < n, n >= 1,
// and returns false if any of those is NaN. Between +0 and -0 it may
// return either.
//
//go:noescape
func maxBlockAVX(x *float32, n int, m *[BlockLanes]float32) bool

// expBlockAVX is the lockstep softmax pass over a key-major block: for
// r < n, e = math.Exp(float64(x[r*8+i]-m[i])), x[r*8+i] = float32(e) and
// sums[i] += e, lane by lane in key order. It returns the number of keys
// done: n, or the first key with an argument off the kernel's range (left
// unchanged).
//
//go:noescape
func expBlockAVX(x *float32, n int, m *[BlockLanes]float32, sums *[BlockLanes]float64) int

// expBlock4AVX is expBlockAVX over lanes 0-3 only; lanes 4-7 are left
// unchanged.
//
//go:noescape
func expBlock4AVX(x *float32, n int, m *[BlockLanes]float32, sums *[BlockLanes]float64) int

// scaleBlockAVX multiplies x[r*8+i] by inv[i] for r < n.
//
//go:noescape
func scaleBlockAVX(x *float32, n int, inv *[BlockLanes]float32)
