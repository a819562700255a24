//go:build !amd64 || amd64.v3

package tensor

// Builds without the vector kernels (other architectures, and
// GOAMD64=v3; see vec_amd64.go): softmax, SiLU, pow and the attention
// kernels run their scalar loops.
const (
	hasExpKernel = false
	hasPowKernel = false
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

func dotRowsAVX(q, page *float32, hd, n int, out *float32) int {
	panic("tensor: vector kernels not built")
}

func attnAccumAVX(scores *float32, n int, page *float32, hd int, dst *float32) int {
	panic("tensor: vector kernels not built")
}

func maxAVX(x *float32, n int) (float32, bool) { panic("tensor: vector kernels not built") }

func scaleAVX(x *float32, n int, a float32) { panic("tensor: vector kernels not built") }

func dotBlockAVX(qT, keys *float32, hd, n int, scale float32, out *float32) {
	panic("tensor: vector kernels not built")
}

func accBlockAVX(w *float32, n int, v *float32, hd int, acc *float32) {
	panic("tensor: vector kernels not built")
}

func accBlock4AVX(w *float32, n int, v *float32, hd int, acc *float32) {
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
