package tensor

import (
	"fmt"
	"runtime"
)

// Packed-panel weights for the vectorized projection kernel.
//
// A PackedMatrix holds the same (rows x cols) weights as a Matrix,
// regrouped into panels of PanelRows consecutive output rows. Inside a
// panel the layout is k-major: the PanelRows weights of column k sit
// next to each other, so one step of the kernel loads a whole column of
// the panel as four 8-lane vectors and multiplies it by one broadcast
// activation. The last panel is zero-padded to PanelRows rows; the
// padding lanes are computed and discarded.
//
// The kernel (amd64 AVX2, panel_amd64.s) gives each output row its own
// vector lane and walks k in increasing order, multiplying and then
// adding (VMULPS, VADDPS; never a fused multiply-add) into a lane that
// starts at +0. That is exactly the scalar chain matMulTChunk runs per
// output element — s += w[k]*x[k] with the product rounded to float32
// before the add — so MatMulTPacked is bit-identical to MatMulT for
// every shape, split and input, ±0 and subnormals included. MatMulT
// stays the portable path and the oracle the packed kernel is tested
// against. On AVX-512F CPUs the same chains run sixteen lanes to a
// register (DESIGN.md §22): four input rows per panel step, or one or
// two rows over two panels at once, over the same packed layout.

// PanelRows is the number of output rows in one packed panel: four
// 8-lane AVX vectors, or two 16-lane AVX-512 ones.
const PanelRows = 32

// packedParallelThreshold is the minimum number of multiply-adds at
// which MatMulTPacked splits its panels across goroutines: the smallest
// size at which the 2-way split has not lost to the serial kernel in
// any measurement session on a 2-vCPU Xeon (DESIGN.md §17.4, §22.5;
// the isolated crossover moved between 1.3 M and 34 M from session to
// session). It is 256x MatMulT's parallelThreshold, so every projection
// of the serving-size models runs serially, where both cores are
// already busy with the engine's workers.
const packedParallelThreshold = 1 << 24

// PackedMatrix is a (Rows x Cols) weight matrix in packed-panel layout.
// Data holds ceil(Rows/PanelRows) panels of PanelRows*Cols floats each;
// element (j, k) lives at Data[(j/PanelRows*Cols+k)*PanelRows + j%PanelRows].
type PackedMatrix struct {
	Rows, Cols int
	Data       []float32
}

// HasPackedKernel reports whether this build and CPU run the packed
// kernel. When false, Pack returns nil and callers keep using MatMulT.
func HasPackedKernel() bool { return hasPackedKernel }

// Pack returns w in packed-panel layout, or nil when HasPackedKernel is
// false.
func Pack(w *Matrix) *PackedMatrix {
	if !hasPackedKernel {
		return nil
	}
	panels := (w.Rows + PanelRows - 1) / PanelRows
	p := &PackedMatrix{Rows: w.Rows, Cols: w.Cols, Data: make([]float32, panels*PanelRows*w.Cols)}
	p.Repack(w)
	return p
}

// Repack overwrites p with w's current values, in place. w must have
// p's shape. Callers that update weights in place (training) repack so
// the packed view never goes stale.
func (p *PackedMatrix) Repack(w *Matrix) {
	if w.Rows != p.Rows || w.Cols != p.Cols {
		panic(fmt.Sprintf("tensor: Repack of %dx%d into %dx%d", w.Rows, w.Cols, p.Rows, p.Cols))
	}
	for j := 0; j < w.Rows; j++ {
		base := j / PanelRows * w.Cols * PanelRows
		lane := j % PanelRows
		for k, v := range w.Row(j) {
			p.Data[base+k*PanelRows+lane] = v
		}
	}
}

// MatMulTPacked computes out = X * W^T like MatMulT, with W in packed
// layout, and returns bit-identical results (see the comment at the top
// of this file). Large products split their panels across goroutines;
// every output element is still one independent sequential reduction,
// so the split cannot change a bit.
func MatMulTPacked(w *PackedMatrix, x *Matrix, out *Matrix) {
	if x.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: MatMulTPacked inner dim mismatch %d vs %d", x.Cols, w.Cols))
	}
	if out.Rows != x.Rows || out.Cols != w.Rows {
		panic("tensor: MatMulTPacked out dims mismatch")
	}
	panels := (w.Rows + PanelRows - 1) / PanelRows
	nw := 1
	if x.Rows*w.Rows*w.Cols >= packedParallelThreshold {
		nw = min(runtime.GOMAXPROCS(0), panels)
	}
	run := packedPanels
	if panelTier == avx512Tier {
		run = packedPanels512
	}
	if nw <= 1 {
		run(w, x, out, 0, panels)
		return
	}
	parallelRows(panels, nw, func(s, e int) { run(w, x, out, s, e) })
}

// packedPanels computes the output columns of panels [s, e) for every
// input row, one panel at a time so the panel stays in L1 while the
// input rows stream past it: two input rows per kernel call, then one
// for an odd last row. A full panel's results go straight to out; a
// padded last panel's go through buf and only its real rows are copied.
func packedPanels(w *PackedMatrix, x, out *Matrix, s, e int) {
	k := w.Cols
	if k == 0 {
		// An empty reduction is +0, as MatMulT's accumulators start.
		for i := 0; i < x.Rows; i++ {
			clear(out.Row(i)[s*PanelRows : min(e*PanelRows, w.Rows)])
		}
		return
	}
	var buf [2 * PanelRows]float32
	for p := s; p < e; p++ {
		panel := w.Data[p*PanelRows*k : (p+1)*PanelRows*k]
		j0 := p * PanelRows
		width := min(PanelRows, w.Rows-j0)
		i := 0
		for ; i+1 < x.Rows; i += 2 {
			x0, x1 := x.Row(i)[:k], x.Row(i + 1)[:k]
			if width == PanelRows {
				o0, o1 := out.Row(i)[j0:j0+PanelRows], out.Row(i + 1)[j0:j0+PanelRows]
				panelDot2(&panel[0], &x0[0], &x1[0], k, &o0[0], &o1[0])
				continue
			}
			panelDot2(&panel[0], &x0[0], &x1[0], k, &buf[0], &buf[PanelRows])
			copy(out.Row(i)[j0:], buf[:width])
			copy(out.Row(i + 1)[j0:], buf[PanelRows:PanelRows+width])
		}
		if i < x.Rows {
			x0 := x.Row(i)[:k]
			if width == PanelRows {
				o0 := out.Row(i)[j0 : j0+PanelRows]
				panelDot1(&panel[0], &x0[0], k, &o0[0])
				continue
			}
			panelDot1(&panel[0], &x0[0], k, &buf[0])
			copy(out.Row(i)[j0:], buf[:width])
		}
	}
}

// packedPanels512 is packedPanels on the 512-bit tier: per panel, four
// input rows per panelDot4 call; then the one to three rows left walk the
// panels two at a time (packedRows512). Every output element is the same
// chain as on the AVX2 tier, only computed in another order.
func packedPanels512(w *PackedMatrix, x, out *Matrix, s, e int) {
	k := w.Cols
	if k == 0 {
		packedPanels(w, x, out, s, e)
		return
	}
	rows4, ldo := x.Rows&^3, out.Cols
	if rows4 > 0 {
		var buf [4 * PanelRows]float32
		for p := s; p < e; p++ {
			panel := w.Data[p*PanelRows*k : (p+1)*PanelRows*k]
			j0 := p * PanelRows
			width := min(PanelRows, w.Rows-j0)
			for i := 0; i < rows4; i += 4 {
				xs := x.Data[i*k : (i+4)*k]
				if width == PanelRows {
					o := out.Data[i*ldo+j0 : (i+3)*ldo+j0+PanelRows]
					panelDot4(&panel[0], &xs[0], k, &o[0], ldo)
					continue
				}
				panelDot4(&panel[0], &xs[0], k, &buf[0], PanelRows)
				for r := 0; r < 4; r++ {
					copy(out.Row(i + r)[j0:], buf[r*PanelRows:r*PanelRows+width])
				}
			}
		}
	}
	i := rows4
	if x.Rows-i >= 2 {
		packedRows512(w, x, out, i, 2, s, e)
		i += 2
	}
	if i < x.Rows {
		packedRows512(w, x, out, i, 1, s, e)
	}
}

// packedRows512 computes the outputs of input rows i to i+rows-1 (rows 1
// or 2) over panels [s, e): two panels per panelDot1x2 or panelDot2x2
// call, which keeps twice the accumulator chains of panelDot1 and
// panelDot2 in flight, and an odd last panel on those.
func packedRows512(w *PackedMatrix, x, out *Matrix, i, rows, s, e int) {
	k := w.Cols
	x0, o0 := x.Row(i)[:k], out.Row(i)
	var x1, o1 []float32
	if rows == 2 {
		x1, o1 = x.Row(i + 1)[:k], out.Row(i+1)
	}
	var buf [2][2 * PanelRows]float32
	for p := s; p < e; p += 2 {
		n := min(2, e-p)
		panels := w.Data[p*PanelRows*k : (p+n)*PanelRows*k]
		j0, span := p*PanelRows, n*PanelRows
		width := min(span, w.Rows-j0)
		d0, d1 := &buf[0][0], &buf[1][0]
		if width == span {
			d0 = &o0[j0 : j0+span][0]
			if rows == 2 {
				d1 = &o1[j0 : j0+span][0]
			}
		}
		switch {
		case n == 2 && rows == 2:
			panelDot2x2(&panels[0], &x0[0], &x1[0], k, d0, d1)
		case n == 2:
			panelDot1x2(&panels[0], &x0[0], k, d0)
		case rows == 2:
			panelDot2(&panels[0], &x0[0], &x1[0], k, d0, d1)
		default:
			panelDot1(&panels[0], &x0[0], k, d0)
		}
		if width < span {
			copy(o0[j0:], buf[0][:width])
			if rows == 2 {
				copy(o1[j0:], buf[1][:width])
			}
		}
	}
}
