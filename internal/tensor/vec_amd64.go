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
var hasExpKernel = hasPackedKernel && detectFMA() && expProbeMatches(expAVX)

// hasExp512 is fixed at start-up the same way for the 512-bit tier of the
// exponentials: on top of the AVX2 kernels, which it runs for its blocks
// of four, the CPU must pass hasAVX512 and EXP8 must pass the same probe
// on its own.
var hasExp512 = hasExpKernel && hasAVX512 && expProbeMatches(expAVX512)

// expTier is the tier softmax, SoftmaxBlock and SiLU run on.
var expTier = topTier(hasExpKernel, hasExp512)

// hasPowKernel is fixed at start-up like hasExpKernel: the pow kernel
// runs on EXP4 and copies this Go release's math.Pow, math.Log and
// math.Exp step for step, and its probe checks that copy bit for bit.
var hasPowKernel = hasExpKernel && powProbeMatches()

func detectFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

// expProbeMatches compares the exp kernel exp (expAVX or expAVX512) with
// math.Exp on a fixed set of arguments spread over the kernel's range, bit
// for bit. On math.Exp's
// non-FMA path 77 of the 1024 probes round differently (Go 1.24), so the
// probe cannot pass there.
func expProbeMatches(exp func(x *float64, n int) int) bool {
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
	if exp(&x[0], len(x)) != len(x) {
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

// dotKeysAVX sets out[r] = Dot(q, key r) * scale for r < n, hd >= 1 and
// n >= 1, where element k of key r is keys[k*stride+r] (DotKeys).
//
//go:noescape
func dotKeysAVX(q *float32, hd int, keys *float32, stride, n int, scale float32, out *float32)

// dotKeysAVX512 is dotKeysAVX sixteen keys to a register. AVX-512F.
//
//go:noescape
func dotKeysAVX512(q *float32, hd int, keys *float32, stride, n int, scale float32, out *float32)

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

// dotBlockAVX sets out[r*8+i] = Dot(q_i, key r) * scale for r < n and
// i < 8, given qT[k*8+i] = q_i[k] and element k of key r at
// keys[k*stride+r], hd >= 1.
//
//go:noescape
func dotBlockAVX(qT, keys *float32, hd, stride, n int, scale float32, out *float32)

// dotBlockAVX512 is dotBlockAVX over the first n&^15 keys, sixteen keys
// to a register. AVX-512F.
//
//go:noescape
func dotBlockAVX512(qT, keys *float32, hd, stride, n int, scale float32, out *float32)

// accBlockAVX adds w[r*8+i]*v[r*hd+d] to acc[i*hd+d] for i < 8 and
// d < hd&^7 over the n rows in increasing r, skipping ±0 weights, hd >= 8.
//
//go:noescape
func accBlockAVX(w *float32, n int, v *float32, hd int, acc *float32)

// accBlock4AVX is accBlockAVX over lanes 0-3 only.
//
//go:noescape
func accBlock4AVX(w *float32, n int, v *float32, hd int, acc *float32)

// accBlockAVX512 is accBlockAVX over every d < hd, sixteen columns to a
// register and a masked last group. AVX-512F.
//
//go:noescape
func accBlockAVX512(w *float32, n int, v *float32, hd int, acc *float32)

// accBlock4AVX512 is accBlockAVX512 over lanes 0-3 only.
//
//go:noescape
func accBlock4AVX512(w *float32, n int, v *float32, hd int, acc *float32)

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

// The 512-bit tier's exponentials (DESIGN.md §22): each is its AVX2 twin
// with EXP8, eight float64 lanes per block, in place of EXP4, and the
// same bits. Each stops at the first block of eight it declines, like the
// AVX2 kernels at a block of four, and takes a last block of four on
// EXP4; a caller that computes the next four elements apart and calls
// again covers the same blocks as with the AVX2 kernel.

// expAVX512 is expAVX on EXP8.
//
//go:noescape
func expAVX512(x *float64, n int) int

// expShiftAVX512 is expShiftAVX on EXP8, its sum still one index-order
// float64 chain.
//
//go:noescape
func expShiftAVX512(x *float32, n int, maxv float32, sum *float64) int

// siluAVX512 is siluAVX on EXP8.
//
//go:noescape
func siluAVX512(x *float32, n int) int

// expBlockAVX512 is expBlockAVX with one EXP8 per key.
//
//go:noescape
func expBlockAVX512(x *float32, n int, m *[BlockLanes]float32, sums *[BlockLanes]float64) int

// expBlock4AVX512 is expBlock4AVX with two keys per EXP8, key r's sums
// added before key r+1's.
//
//go:noescape
func expBlock4AVX512(x *float32, n int, m *[BlockLanes]float32, sums *[BlockLanes]float64) int

// The multi-head kernels of one-row passes (heads.go, DESIGN.md §27):
// four rows (heads) side by side, each its own chain in its per-row
// order. A caller with fewer heads repeats head 0 in the spare slots.

// expShiftHeadsAVX is the side-by-side exponential pass of SoftmaxHeads:
// for i in [off, off+n&^3), in blocks of four, and every row h < 4,
// e = math.Exp(float64(x[h][i]-maxv[h])), x[h][i] = float32(e) and
// sums[h] += e, each row's sum one index-order float64 chain. It returns
// the number done: n&^3, or up to the first block in which some row's
// argument is off EXP4's range (left unchanged).
//
//go:noescape
func expShiftHeadsAVX(x *[HeadGroup]*float32, off, n int, maxv *[HeadGroup]float32, sums *[HeadGroup]float64) int

// expShiftHeadsAVX512 is expShiftHeadsAVX on EXP8 in blocks of eight,
// for i in [off, off+n&^7).
//
//go:noescape
func expShiftHeadsAVX512(x *[HeadGroup]*float32, off, n int, maxv *[HeadGroup]float32, sums *[HeadGroup]float64) int

// accHeadsAVX adds w[h][r]*v[h][r*hd+d] to dst[h][d] for h < 4, d < hd&^7
// and r < n, rows in increasing r, skipping a head's ±0 weights
// (AccumHeads).
//
//go:noescape
func accHeadsAVX(w *[HeadGroup]*float32, n int, v *[HeadGroup]*float32, hd int, dst *[HeadGroup]*float32)

// accHeadsAVX512 is accHeadsAVX over every d < hd, sixteen columns to a
// register and a masked last group. AVX-512F.
//
//go:noescape
func accHeadsAVX512(w *[HeadGroup]*float32, n int, v *[HeadGroup]*float32, hd int, dst *[HeadGroup]*float32)
