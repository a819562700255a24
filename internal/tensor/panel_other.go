//go:build !amd64 || amd64.v3

package tensor

// Builds without the packed kernel (other architectures, and GOAMD64=v3
// where Go may fuse MatMulT's multiply-adds; see panel_amd64.go): Pack
// returns nil and every projection runs on MatMulT.
const (
	hasPackedKernel = false
	hasAVX512       = false
	panelTier       = scalarTier
)

func panelDot2(panel, x0, x1 *float32, k int, out0, out1 *float32) {
	panic("tensor: packed kernel not built")
}

func panelDot1(panel, x0 *float32, k int, out0 *float32) {
	panic("tensor: packed kernel not built")
}

func panelDot4(panel, x *float32, k int, out *float32, ldo int) {
	panic("tensor: packed kernel not built")
}

func panelDot1x2(panel, x0 *float32, k int, out0 *float32) {
	panic("tensor: packed kernel not built")
}

func panelDot2x2(panel, x0, x1 *float32, k int, out0, out1 *float32) {
	panic("tensor: packed kernel not built")
}
