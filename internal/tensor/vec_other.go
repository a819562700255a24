//go:build !amd64 || amd64.v3

package tensor

// Builds without the vector kernels (other architectures, and
// GOAMD64=v3; see vec_amd64.go): softmax, SiLU, pow and the attention
// kernels run their scalar loops.
const (
	hasExpKernel = false
	hasExp512    = false
	hasPowKernel = false
	expTier      = scalarTier
)

func expAVX(x *float64, n int) int { panic("tensor: vector kernels not built") }

func expShiftAVX(x *float32, n int, maxv float32, sum *float64) int {
	panic("tensor: vector kernels not built")
}

func powLogAVX(x *float32, n int, yf float64, t *float64) int {
	panic("tensor: vector kernels not built")
}

func powExpAVX(x *float32, t *float64, n int, yi int) int {
	panic("tensor: vector kernels not built")
}

func siluAVX(x *float32, n int) int { panic("tensor: vector kernels not built") }

func dotKeysAVX(q *float32, hd int, keys *float32, stride, n int, scale float32, out *float32) {
	panic("tensor: vector kernels not built")
}

func dotKeysAVX512(q *float32, hd int, keys *float32, stride, n int, scale float32, out *float32) {
	panic("tensor: vector kernels not built")
}

func attnAccumAVX(scores *float32, n int, page *float32, hd int, dst *float32) int {
	panic("tensor: vector kernels not built")
}

func maxAVX(x *float32, n int) (float32, bool) { panic("tensor: vector kernels not built") }

func scaleAVX(x *float32, n int, a float32) { panic("tensor: vector kernels not built") }

func dotBlockAVX(qT, keys *float32, hd, stride, n int, scale float32, out *float32) {
	panic("tensor: vector kernels not built")
}

func dotBlockAVX512(qT, keys *float32, hd, stride, n int, scale float32, out *float32) {
	panic("tensor: vector kernels not built")
}

func accBlockAVX(w *float32, n int, v *float32, hd int, acc *float32) {
	panic("tensor: vector kernels not built")
}

func accBlock4AVX(w *float32, n int, v *float32, hd int, acc *float32) {
	panic("tensor: vector kernels not built")
}

func accBlockAVX512(w *float32, n int, v *float32, hd int, acc *float32) {
	panic("tensor: vector kernels not built")
}

func accBlock4AVX512(w *float32, n int, v *float32, hd int, acc *float32) {
	panic("tensor: vector kernels not built")
}

func maxBlockAVX(x *float32, n int, m *[BlockLanes]float32) bool {
	panic("tensor: vector kernels not built")
}

func expBlockAVX(x *float32, n int, m *[BlockLanes]float32, sums *[BlockLanes]float64) int {
	panic("tensor: vector kernels not built")
}

func expBlock4AVX(x *float32, n int, m *[BlockLanes]float32, sums *[BlockLanes]float64) int {
	panic("tensor: vector kernels not built")
}

func scaleBlockAVX(x *float32, n int, inv *[BlockLanes]float32) {
	panic("tensor: vector kernels not built")
}

func expAVX512(x *float64, n int) int { panic("tensor: vector kernels not built") }

func expShiftAVX512(x *float32, n int, maxv float32, sum *float64) int {
	panic("tensor: vector kernels not built")
}

func siluAVX512(x *float32, n int) int { panic("tensor: vector kernels not built") }

func expBlockAVX512(x *float32, n int, m *[BlockLanes]float32, sums *[BlockLanes]float64) int {
	panic("tensor: vector kernels not built")
}

func expBlock4AVX512(x *float32, n int, m *[BlockLanes]float32, sums *[BlockLanes]float64) int {
	panic("tensor: vector kernels not built")
}

func expShiftHeadsAVX(x *[HeadGroup]*float32, off, n int, maxv *[HeadGroup]float32, sums *[HeadGroup]float64) int {
	panic("tensor: vector kernels not built")
}

func expShiftHeadsAVX512(x *[HeadGroup]*float32, off, n int, maxv *[HeadGroup]float32, sums *[HeadGroup]float64) int {
	panic("tensor: vector kernels not built")
}

func accHeadsAVX(w *[HeadGroup]*float32, n int, v *[HeadGroup]*float32, hd int, dst *[HeadGroup]*float32) {
	panic("tensor: vector kernels not built")
}

func accHeadsAVX512(w *[HeadGroup]*float32, n int, v *[HeadGroup]*float32, hd int, dst *[HeadGroup]*float32) {
	panic("tensor: vector kernels not built")
}
