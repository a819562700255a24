package tensor

import (
	"fmt"
	"math"
)

// Blocked attention kernels (DESIGN.md §21). A block is up to
// BlockLanes query rows of one head, one float32 lane each, scored
// against one shared run of keys: each key and value row is read once
// per block instead of once per row. Scores and weights are kept
// key-major, x[r*BlockLanes+i] for key r and lane i, so that one vector
// holds one key's entry for every row of the block. Every lane keeps the
// per-row kernels' arithmetic in the per-row order: its own Dot chain
// over the head dim, its own index-order float64 softmax sum, and its
// own index-order value accumulation with ±0 weights skipped, so each
// lane's result is bit-identical to the per-row path.

// BlockLanes is the number of query rows one attention block carries.
const BlockLanes = 8

// DotBlock scores a block of queries against n keys:
// out[r*BlockLanes+i] = Dot(q_i, keys[r*hd:][:hd]) * scale for r < n and
// every lane i. qT holds the queries transposed, qT[k*BlockLanes+i] =
// q_i[k], so hd = len(qT)/BlockLanes. The scale is the same single
// rounding of the finished dot as a separate Scale pass.
func DotBlock(qT, keys []float32, n int, scale float32, out []float32) {
	hd := len(qT) / BlockLanes
	if hd == 0 || len(qT) != hd*BlockLanes {
		panic(fmt.Sprintf("tensor: DotBlock transposed queries of length %d", len(qT)))
	}
	if len(keys) < n*hd || len(out) < n*BlockLanes {
		panic(fmt.Sprintf("tensor: DotBlock keys %d / out %d too short for %d keys of dim %d", len(keys), len(out), n, hd))
	}
	if n == 0 {
		return
	}
	if hasPackedKernel {
		dotBlockAVX(&qT[0], &keys[0], hd, n, scale, &out[0])
		return
	}
	dotBlock(qT, keys, hd, n, scale, out)
}

// dotBlock is DotBlock's portable loop and its kernel's oracle.
func dotBlock(qT, keys []float32, hd, n int, scale float32, out []float32) {
	for r := 0; r < n; r++ {
		key := keys[r*hd:][:hd]
		for i := 0; i < BlockLanes; i++ {
			var s float32
			for k, v := range key {
				s += qT[k*BlockLanes+i] * v
			}
			out[r*BlockLanes+i] = s * scale
		}
	}
}

// SoftmaxBlock applies SoftmaxMasked to the first len(lens) lanes of the
// n-key block x, the block's rows: lane i over its first lens[i] keys. A
// row's entries at keys from lens[i] on must be NegInf; they come out 0,
// so AccumBlock skips them. The other lanes' entries are left
// unspecified. With the exp kernel the rows run in lockstep, each with
// its own float64 sum, so the sums are independent chains; a block of at
// most four rows exponentiates four lanes per key instead of eight. A
// block whose maximum is not finite in some row (a NaN or ±Inf score, or
// a fully masked row) runs every row on the scalar loop instead.
func SoftmaxBlock(x []float32, n int, lens []int) {
	if len(x) < n*BlockLanes || len(lens) == 0 || len(lens) > BlockLanes {
		panic(fmt.Sprintf("tensor: SoftmaxBlock block %d for %d keys of %d rows", len(x), n, len(lens)))
	}
	if n == 0 {
		return
	}
	softmaxBlock(x[:n*BlockLanes], lens, hasExpKernel)
}

func softmaxBlock(x []float32, lens []int, vec bool) {
	n := len(x) / BlockLanes
	if vec {
		var m [BlockLanes]float32
		if maxBlockAVX(&x[0], n, &m) && finite(m[:len(lens)]) {
			// Each row's maximum is its lane's: NegInf padding cannot
			// raise it, and only a zero maximum's sign may differ from the
			// scalar loop's, which no v-maxv sees.
			lanes := BlockLanes
			if len(lens) <= 4 {
				lanes = 4
			}
			var sums [BlockLanes]float64
			for r := 0; r < n; r++ {
				if lanes == 4 {
					r += expBlock4AVX(&x[r*BlockLanes], n-r, &m, &sums)
				} else {
					r += expBlockAVX(&x[r*BlockLanes], n-r, &m, &sums)
				}
				if r == n {
					break
				}
				// A key with an argument off the kernel's range: its lanes
				// on scalar math.Exp, still in key order.
				key := x[r*BlockLanes:][:lanes]
				for i, v := range key {
					if isNegInf(v) {
						key[i] = 0
						continue
					}
					e := math.Exp(float64(v - m[i]))
					key[i] = float32(e)
					sums[i] += e
				}
			}
			// A finite maximum contributes exp(0) = 1, so every row's sum
			// is at least 1 and its inverse finite: Scale's case in
			// softmax.
			var inv [BlockLanes]float32
			for i, s := range sums[:lanes] {
				inv[i] = float32(1.0 / s)
			}
			scaleBlockAVX(&x[0], n, &inv)
			return
		}
	}
	for i, l := range lens {
		softmaxLane(x, i, l)
	}
}

// finite reports whether every maximum in m is finite.
func finite(m []float32) bool {
	for _, v := range m {
		if math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// softmaxLane is softmax(x, true, false), the scalar masked loop, on lane
// i of the key-major block x over its first n keys; the lane's later
// entries become 0.
func softmaxLane(x []float32, i, n int) {
	keys := len(x) / BlockLanes
	for r := n; r < keys; r++ {
		x[r*BlockLanes+i] = 0
	}
	if n == 0 {
		return
	}
	maxv := x[i]
	for r := 1; r < n; r++ {
		if v := x[r*BlockLanes+i]; v > maxv {
			maxv = v
		}
	}
	if isNegInf(maxv) {
		u := float32(1.0) / float32(n)
		for r := 0; r < n; r++ {
			x[r*BlockLanes+i] = u
		}
		return
	}
	var sum float64
	for r := 0; r < n; r++ {
		p := &x[r*BlockLanes+i]
		if isNegInf(*p) {
			*p = 0
			continue
		}
		e := math.Exp(float64(*p - maxv))
		*p = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for r := 0; r < n; r++ {
		if p := &x[r*BlockLanes+i]; *p != 0 {
			*p *= inv
		}
	}
}

// AccumBlock adds n value rows into the outputs of the block's first
// lanes rows: acc[i*hd+d] += w[r*BlockLanes+i] * v[r*hd+d] for i < lanes
// and d < hd = len(acc)/BlockLanes, value rows in increasing r, and a
// row's ±0 weights skipped — AttnAccumContig's per-row order in every
// lane. The other lanes' outputs are left unspecified. The kernel takes
// hd's whole groups of eight columns, with one accumulator chain per
// lane (four lanes for a block of at most four rows); the loop takes the
// rest.
func AccumBlock(w []float32, n int, v, acc []float32, lanes int) {
	hd := len(acc) / BlockLanes
	if len(acc) != hd*BlockLanes || len(w) < n*BlockLanes || len(v) < n*hd || lanes < 1 || lanes > BlockLanes {
		panic(fmt.Sprintf("tensor: AccumBlock weights %d, values %d, outputs %d for %d rows of %d lanes", len(w), len(v), len(acc), n, lanes))
	}
	if n == 0 || hd == 0 {
		return
	}
	c := 0
	if hasPackedKernel && hd >= 8 {
		if lanes <= 4 {
			accBlock4AVX(&w[0], n, &v[0], hd, &acc[0])
		} else {
			accBlockAVX(&w[0], n, &v[0], hd, &acc[0])
		}
		c = hd &^ 7
	}
	if c < hd {
		accBlock(w, n, v, hd, c, acc, lanes)
	}
}

// accBlock is AccumBlock's loop over columns [c, hd), the kernel's oracle
// with c = 0.
func accBlock(w []float32, n int, v []float32, hd, c int, acc []float32, lanes int) {
	for r := 0; r < n; r++ {
		row := v[r*hd+c : (r+1)*hd]
		for i := 0; i < lanes; i++ {
			wi := w[r*BlockLanes+i]
			if wi == 0 {
				continue
			}
			dst := acc[i*hd+c : (i+1)*hd]
			for d, x := range row {
				dst[d] += wi * x
			}
		}
	}
}
