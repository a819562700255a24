// Package tensor provides the small set of dense float32 linear-algebra
// kernels needed by the pure-Go transformer substrate: matrix-vector and
// matrix-matrix products, softmax, RMS normalization, rotary position
// embeddings, and top-k selection.
//
// The package is deliberately minimal: everything is row-major []float32
// with explicit dimensions, no reflection, no interface dispatch in inner
// loops. Every kernel runs on its caller's goroutine: work is split
// across requests by the engine and across one layer's attention items by
// the transformer (DESIGN.md §28), never inside a kernel.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	//lint:ignore aliasret Row is the documented in-place row view (writes through it update the matrix); Data is stable, not recycled scratch
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes dst += alpha*x.
func Axpy(alpha float32, x, dst []float32) {
	if len(x) != len(dst) {
		panic("tensor: Axpy length mismatch")
	}
	for i := range x {
		dst[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha in place. With the AVX2
// kernels, whole blocks of eight run on scaleAVX, which rounds each
// product exactly as the loop does.
func Scale(alpha float32, x []float32) {
	i := 0
	if hasPackedKernel && len(x) >= 8 {
		scaleAVX(&x[0], len(x), alpha)
		i = len(x) &^ 7
	}
	for ; i < len(x); i++ {
		x[i] *= alpha
	}
}

// Add computes dst[i] += x[i].
func Add(dst, x []float32) {
	if len(x) != len(dst) {
		panic("tensor: Add length mismatch")
	}
	for i := range x {
		dst[i] += x[i]
	}
}

// MatVec computes out = W*x where W is (out x in), x has length in.
// out must have length W.Rows.
func MatVec(w *Matrix, x, out []float32) {
	if len(x) != w.Cols {
		panic(fmt.Sprintf("tensor: MatVec x len %d != cols %d", len(x), w.Cols))
	}
	if len(out) != w.Rows {
		panic(fmt.Sprintf("tensor: MatVec out len %d != rows %d", len(out), w.Rows))
	}
	for i := 0; i < w.Rows; i++ {
		out[i] = Dot(w.Row(i), x)
	}
}

// MatMulT computes out = X * W^T where X is (n x in) holding n row
// vectors and W is (out x in); the result is (n x out). This is the
// layout the transformer uses: each weight matrix stores output rows, so
// a batch of activations multiplies against the transpose.
//
// Each output element is a full sequential Dot over the shared inner
// dimension, so results are bit-identical to MatVec. The inner kernel
// register-blocks four output rows at a time: the four accumulators are
// INDEPENDENT chains, each still summing its own products in strictly
// increasing k — identical rounding to four separate Dot calls — but
// interleaved so the CPU overlaps their FMA latencies instead of
// stalling on one dependent chain.
func MatMulT(w *Matrix, x *Matrix, out *Matrix) {
	if x.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: MatMulT inner dim mismatch %d vs %d", x.Cols, w.Cols))
	}
	if out.Rows != x.Rows || out.Cols != w.Rows {
		panic("tensor: MatMulT out dims mismatch")
	}
	for i := 0; i < x.Rows; i++ {
		matMulTRow(w, x.Row(i), out.Row(i))
	}
}

// matMulTRow computes or[j] = Dot(w.Row(j), xr) for every row j of w,
// four rows per step. Row slices are clamped to len(xr) so the compiler
// can hoist the bounds checks out of the inner loop.
func matMulTRow(w *Matrix, xr, or []float32) {
	n := len(xr)
	j := 0
	for ; j+3 < w.Rows; j += 4 {
		w0 := w.Row(j)[:n]
		w1 := w.Row(j + 1)[:n]
		w2 := w.Row(j + 2)[:n]
		w3 := w.Row(j + 3)[:n]
		var s0, s1, s2, s3 float32
		for k := 0; k < n; k++ {
			xk := xr[k]
			s0 += w0[k] * xk
			s1 += w1[k] * xk
			s2 += w2[k] * xk
			s3 += w3[k] * xk
		}
		or[j], or[j+1], or[j+2], or[j+3] = s0, s1, s2, s3
	}
	for ; j < w.Rows; j++ {
		or[j] = Dot(w.Row(j), xr)
	}
}

// SoftmaxRows applies Softmax to every row of m in place. Each row is
// processed exactly as a standalone Softmax call, so results are
// bit-identical to the per-vector kernel.
func SoftmaxRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		Softmax(m.Row(i))
	}
}

// Softmax computes the softmax of x in place using the max-subtraction
// trick for numerical stability. Entries equal to NegInf map to exactly 0.
func Softmax(x []float32) { softmax(x, false, expTier) }

// SoftmaxMasked is Softmax specialized for heavily masked inputs: entries
// equal to NegInf skip the math.Exp call and are written as exactly 0.
// Results are bit-identical to Softmax — a masked entry contributes
// exp(-inf) = +0.0 to the float64 sum there, and adding +0.0 to a
// nonnegative sum cannot change its bits (the unmasked max always
// contributes exp(0) = 1, so the sum is strictly positive and never -0.0).
// The batched tree-attention path uses this: under a topology mask most
// score slots of a deep tree are NegInf, and exp dominates softmax cost.
func SoftmaxMasked(x []float32) { softmax(x, true, expTier) }

// tier names the widest vector kernels a call may run on. Every tier
// returns the scalar loop's bits; the package runs on the widest one the
// build and CPU support (expTier, panelTier), and the tests pass each
// tier explicitly.
type tier uint8

const (
	scalarTier tier = iota // the portable loops, the kernels' oracle
	avx2Tier               // the 256-bit kernels
	avx512Tier             // the 512-bit kernels, with the AVX2 ones for what they leave
)

// topTier returns the widest of the tiers that are available.
func topTier(avx2, avx512 bool) tier {
	switch {
	case avx512:
		return avx512Tier
	case avx2:
		return avx2Tier
	}
	return scalarTier
}

// softmax is Softmax (masked false) and SoftmaxMasked (masked true). On
// a vector tier, the kernels take the maximum, the exponentials of whole
// blocks of four (math.Exp's bits, added to the float64 sum in index
// order) and the final scaling, so results do not depend on the tier.
// scalarTier is the scalar loop: the portable path and the kernels'
// oracle.
func softmax(x []float32, masked bool, t tier) {
	vec := t != scalarTier
	if len(x) == 0 {
		return
	}
	maxv := rowMax(x, t)
	if isNegInf(maxv) {
		// All entries masked: define softmax as uniform to avoid NaN.
		u := float32(1.0) / float32(len(x))
		for i := range x {
			x[i] = u
		}
		return
	}
	var sum float64
	i := 0
	if vec {
		i, sum = expShiftVec(x, maxv, masked, t, 0)
	}
	sum = expShift(x[i:], maxv, masked, sum)
	normalize(x, sum, masked, vec)
}

// rowMax is softmax's maximum of a non-empty x: the scalar loop's, which
// keeps x[0] when that is NaN and skips every later NaN. On a vector
// tier the kernel takes whole blocks of eight when none of them is NaN;
// its maximum may differ from the loop's only in the sign of a zero
// maximum, which no v-maxv can see.
func rowMax(x []float32, t tier) float32 {
	maxv, i := x[0], 1
	if t != scalarTier && len(x) >= 8 {
		if m, ok := maxAVX(&x[0], len(x)); ok {
			maxv, i = m, len(x)&^7
		}
	}
	for _, v := range x[i:] {
		if v > maxv {
			maxv = v
		}
	}
	return maxv
}

// normalize is softmax's last pass: x[i] *= float32(1/sum). Masked, a
// zero stays zero even when the inverse is NaN; vec runs the multiply on
// Scale, whose kernel rounds each product as the loop does.
func normalize(x []float32, sum float64, masked, vec bool) {
	inv := float32(1.0 / sum)
	switch {
	case vec && (!masked || inv <= math.MaxFloat32):
		// A finite positive inv maps +0 to +0, so the masked loop's
		// zero skip below changes nothing; only a NaN inv needs it.
		Scale(inv, x)
	case !masked:
		for i := range x {
			x[i] *= inv
		}
	default:
		for i, v := range x {
			if v != 0 {
				x[i] = v * inv
			}
		}
	}
}

// expShift sets x[i] = float32(math.Exp(float64(x[i]-maxv))) and returns
// sum plus every exponential, added in index order. With masked, NegInf
// entries skip math.Exp and are written as 0, which leaves the same bits
// (see SoftmaxMasked).
func expShift(x []float32, maxv float32, masked bool, sum float64) float64 {
	for i, v := range x {
		// Bit-pattern compare against the mask sentinel; equivalent to the
		// float64 IsInf test but without the conversion in the hot loop.
		if masked && isNegInf(v) {
			x[i] = 0
			continue
		}
		e := math.Exp(float64(v - maxv))
		x[i] = float32(e)
		sum += e
	}
	return sum
}

// expShiftVec is expShift over x's whole blocks of four on tier t's
// kernel, continuing the float64 sum from sum; a block the kernel
// declines (an argument out of its range) is computed by expShift. It
// returns how many leading elements are done and the sum so far. The
// kernel needs no mask test: with a finite or +Inf maximum a NegInf
// entry's argument is -Inf, which it maps to +0 like math.Exp, and any
// other maximum makes it decline the block.
func expShiftVec(x []float32, maxv float32, masked bool, t tier, sum float64) (int, float64) {
	n := len(x) &^ 3
	i := 0
	for i < n {
		if t == avx512Tier {
			i += expShiftAVX512(&x[i], n-i, maxv, &sum)
		} else {
			i += expShiftAVX(&x[i], n-i, maxv, &sum)
		}
		if i < n {
			sum = expShift(x[i:i+4], maxv, masked, sum)
			i += 4
		}
	}
	return n, sum
}

// NegInf is the mask value used to zero out attention scores.
var NegInf = float32(math.Inf(-1))

// negInfBits is NegInf's IEEE-754 bit pattern. -Inf is the only float32
// with these bits, so an integer compare against it is an exact "is this
// the mask sentinel" test with no float comparison and no widening.
var negInfBits = math.Float32bits(NegInf)

// isNegInf reports whether v is exactly the NegInf mask sentinel.
func isNegInf(v float32) bool { return math.Float32bits(v) == negInfBits }

// RMSNorm computes out[i] = x[i] / rms(x) * gain[i], the normalization used
// by LLaMA-style transformers. x and out may alias.
func RMSNorm(x, gain, out []float32, eps float32) {
	if len(x) != len(gain) || len(x) != len(out) {
		panic("tensor: RMSNorm length mismatch")
	}
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	inv := float32(1.0 / math.Sqrt(ss/float64(len(x))+float64(eps)))
	for i := range x {
		out[i] = x[i] * inv * gain[i]
	}
}

// SiLU applies the sigmoid-weighted linear unit x*sigmoid(x) in place.
func SiLU(x []float32) { silu(x, expTier) }

// silu is SiLU. On a vector tier, whole blocks of four run on its kernel,
// with the same bits; a block it declines runs on siluScalar, as does
// everything on scalarTier.
func silu(x []float32, t tier) {
	i := 0
	if t != scalarTier {
		n := len(x) &^ 3
		for i < n {
			if t == avx512Tier {
				i += siluAVX512(&x[i], n-i)
			} else {
				i += siluAVX(&x[i], n-i)
			}
			if i < n {
				siluScalar(x[i : i+4])
				i += 4
			}
		}
	}
	siluScalar(x[i:])
}

func siluScalar(x []float32) {
	for i, v := range x {
		x[i] = v / (1 + float32(math.Exp(float64(-v))))
	}
}

// ReLU applies max(0, x) in place (the activation of the OPT family).
func ReLU(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// LayerNorm computes out[i] = (x[i]-mean)/sqrt(var+eps)*gain[i] + bias[i],
// the normalization used by GPT/OPT-style transformers. x and out may
// alias.
func LayerNorm(x, gain, bias, out []float32, eps float32) {
	if len(x) != len(gain) || len(x) != len(bias) || len(x) != len(out) {
		panic("tensor: LayerNorm length mismatch")
	}
	var mean float64
	for _, v := range x {
		mean += float64(v)
	}
	mean /= float64(len(x))
	var variance float64
	for _, v := range x {
		d := float64(v) - mean
		variance += d * d
	}
	variance /= float64(len(x))
	inv := float32(1.0 / math.Sqrt(variance+float64(eps)))
	for i := range x {
		out[i] = (x[i]-float32(mean))*inv*gain[i] + bias[i]
	}
}

// Rope applies rotary position embeddings to vec (length must be even)
// for absolute position pos, rotating consecutive pairs. theta is the
// base frequency (10000 in LLaMA).
func Rope(vec []float32, pos int, theta float64) {
	d := len(vec)
	if d%2 != 0 {
		panic("tensor: Rope requires even dimension")
	}
	for i := 0; i < d; i += 2 {
		freq := math.Pow(theta, -float64(i)/float64(d))
		angle := float64(pos) * freq
		sin, cos := math.Sincos(angle)
		a, b := float64(vec[i]), float64(vec[i+1])
		vec[i] = float32(a*cos - b*sin)
		vec[i+1] = float32(a*sin + b*cos)
	}
}

// RopeTable caches Rope's per-position rotation coefficients. Rope spends
// nearly all its time in math.Pow and math.Sincos, whose inputs depend
// only on (theta, dim, pos) — never on the vector being rotated — so one
// session can compute each position's sin/cos pairs once and replay them
// for every layer, head, and token at that position. The cached values
// are the float64 results of the exact same Pow/Sincos calls, and Apply
// performs the identical float64 rotate, so outputs are bit-identical to
// Rope. Not safe for concurrent use; give each session its own.
type RopeTable struct {
	theta    float64
	dim      int
	sin, cos [][]float64 // [pos][dim/2]
}

// NewRopeTable returns an empty cache for the given rotation parameters.
func NewRopeTable(theta float64, dim int) *RopeTable {
	if dim%2 != 0 {
		panic("tensor: RopeTable requires even dimension")
	}
	return &RopeTable{theta: theta, dim: dim}
}

// Apply rotates vec exactly like Rope(vec, pos, theta), computing the
// position's coefficients on first use. Negative positions bypass the
// cache.
func (t *RopeTable) Apply(vec []float32, pos int) {
	if len(vec) != t.dim {
		panic("tensor: RopeTable dimension mismatch")
	}
	if pos < 0 {
		Rope(vec, pos, t.theta)
		return
	}
	for pos >= len(t.sin) {
		t.sin = append(t.sin, nil)
		t.cos = append(t.cos, nil)
	}
	if t.sin[pos] == nil {
		sins := make([]float64, t.dim/2)
		coss := make([]float64, t.dim/2)
		for i := 0; i < t.dim; i += 2 {
			freq := math.Pow(t.theta, -float64(i)/float64(t.dim))
			sins[i/2], coss[i/2] = math.Sincos(float64(pos) * freq)
		}
		t.sin[pos], t.cos[pos] = sins, coss
	}
	sins, coss := t.sin[pos], t.cos[pos]
	for i := 0; i < t.dim; i += 2 {
		sin, cos := sins[i/2], coss[i/2]
		a, b := float64(vec[i]), float64(vec[i+1])
		vec[i] = float32(a*cos - b*sin)
		vec[i+1] = float32(a*sin + b*cos)
	}
}

// ArgMax returns the index of the maximum element (first on ties) and its
// value. Panics on empty input.
func ArgMax(x []float32) (int, float32) {
	if len(x) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	bi, bv := 0, x[0]
	for i, v := range x[1:] {
		if v > bv {
			bi, bv = i+1, v
		}
	}
	return bi, bv
}

// TopK returns the indices of the k largest elements of x in descending
// order of value (ties broken by lower index first). k is clamped to
// len(x). Runs in O(n*k), fine for the small k used in speculation.
func TopK(x []float32, k int) []int {
	var b TopKBuf
	return b.TopK(x, k)
}

// TopKBuf is TopK with reusable storage, for callers that rank in a
// loop: after warm-up a call allocates nothing. The zero value is ready
// to use; it is not safe for concurrent use.
type TopKBuf struct {
	idx   []int
	taken []bool // all false between calls
}

// TopK is the package's TopK. The result aliases the buffer and stays
// valid until the next call.
func (b *TopKBuf) TopK(x []float32, k int) []int {
	if k > len(x) {
		k = len(x)
	}
	if k <= 0 {
		return nil
	}
	if cap(b.idx) < k {
		b.idx = make([]int, 0, k)
	}
	if len(b.taken) < len(x) {
		b.taken = make([]bool, len(x))
	}
	idx, taken := b.idx[:0], b.taken[:len(x)]
	for n := 0; n < k; n++ {
		bi := -1
		var bv float32
		for i, v := range x {
			if taken[i] {
				continue
			}
			if bi == -1 || v > bv {
				bi, bv = i, v
			}
		}
		taken[bi] = true
		idx = append(idx, bi)
	}
	for _, i := range idx {
		taken[i] = false
	}
	b.idx = idx
	//lint:ignore aliasret TopKBuf exists to hand out its buffer: the result is valid until the next call, as documented
	return idx
}

// MatVecT computes out = W^T * y where W is (rows x cols) and y has
// length rows; out has length cols. This is the input-gradient of a
// MatVec during backpropagation.
func MatVecT(w *Matrix, y, out []float32) {
	if len(y) != w.Rows {
		panic(fmt.Sprintf("tensor: MatVecT y len %d != rows %d", len(y), w.Rows))
	}
	if len(out) != w.Cols {
		panic(fmt.Sprintf("tensor: MatVecT out len %d != cols %d", len(out), w.Cols))
	}
	for c := range out {
		out[c] = 0
	}
	for r := 0; r < w.Rows; r++ {
		yr := y[r]
		if yr == 0 {
			continue
		}
		row := w.Row(r)
		for c := range row {
			out[c] += yr * row[c]
		}
	}
}

// OuterAcc accumulates the outer product dW += y * x^T, the weight
// gradient of y = W*x during backpropagation. dW is (len(y) x len(x)).
func OuterAcc(y, x []float32, dw *Matrix) {
	if dw.Rows != len(y) || dw.Cols != len(x) {
		panic("tensor: OuterAcc dims mismatch")
	}
	for r := range y {
		yr := y[r]
		if yr == 0 {
			continue
		}
		row := dw.Row(r)
		for c := range x {
			row[c] += yr * x[c]
		}
	}
}

// RopeInverse applies the inverse rotary embedding (rotation by -pos),
// which is the gradient mapping of Rope during backpropagation (rotations
// are orthogonal).
func RopeInverse(vec []float32, pos int, theta float64) {
	Rope(vec, -pos, theta)
}

// Sum returns the sum of the elements of x in float64 precision.
func Sum(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s
}

// Normalize scales a nonnegative vector so it sums to 1. If the sum is
// zero it sets the uniform distribution.
func Normalize(x []float32) {
	s := Sum(x)
	if s <= 0 {
		u := float32(1.0) / float32(len(x))
		for i := range x {
			x[i] = u
		}
		return
	}
	inv := float32(1.0 / s)
	for i := range x {
		x[i] *= inv
	}
}
