package tensor

import (
	"fmt"
	"math"
)

// Multi-head attention kernels for one-row passes (DESIGN.md §27). A
// one-row pass has one query row per head and every head sees the same
// keys, so its heads' softmaxes and value accumulations are independent
// chains of equal length. The per-row kernels run one head at a time, and
// each is bound by its one dependent chain: the float64 sum of the
// softmax, the value adds of the accumulation. These kernels carry up to
// HeadGroup heads side by side, one chain each, so the chains' latencies
// overlap; every head keeps its per-row chain in its per-row order, so
// its bits do not move.

// HeadGroup is the most heads the multi-head kernels carry side by side.
const HeadGroup = 4

// SoftmaxHeads applies SoftmaxMasked to every n-long row of x, row h at
// x[h*n:(h+1)*n]. The exponential pass runs up to HeadGroup rows side by
// side, each row's float64 sum its own index-order chain, as in
// SoftmaxMasked. A group in which some row's maximum is not finite (a
// NaN or ±Inf score, or a fully masked row) runs its rows one at a time.
func SoftmaxHeads(x []float32, n int) { softmaxHeads(x, n, expTier) }

func softmaxHeads(x []float32, n int, t tier) {
	if n <= 0 || len(x)%n != 0 {
		panic(fmt.Sprintf("tensor: SoftmaxHeads %d floats in rows of %d", len(x), n))
	}
	rows := len(x) / n
	for h := 0; h < rows; h += HeadGroup {
		g := min(HeadGroup, rows-h)
		softmaxGroup(x[h*n:(h+g)*n], n, g, t)
	}
}

// softmaxGroup is softmaxHeads over g <= HeadGroup rows.
func softmaxGroup(x []float32, n, g int, t tier) {
	var maxv [HeadGroup]float32
	side := t != scalarTier && g > 1
	for h := 0; side && h < g; h++ {
		m := rowMax(x[h*n:][:n], t)
		side = !math.IsInf(float64(m), 0) && !math.IsNaN(float64(m))
		maxv[h] = m
	}
	if !side {
		for h := 0; h < g; h++ {
			softmax(x[h*n:][:n], true, t)
		}
		return
	}
	sums, i := expShiftHeads(x, n, g, &maxv, t)
	for h := 0; h < g; h++ {
		row := x[h*n:][:n]
		j, sum := expShiftVec(row[i:], maxv[h], true, t, sums[h])
		sum = expShift(row[i+j:], maxv[h], true, sum)
		normalize(row, sum, true, true)
	}
}

// expShiftHeads is the side-by-side exponential pass of softmaxGroup on
// tier t's kernel: for every row h < g of x and every element of its
// leading blocks, x = float32(e) for e = math.Exp(float64(x-maxv[h])),
// and the row's float64 sum of those e in index order, which it returns
// with the number of leading elements done. The blocks are of eight
// elements on the 512-bit tier and four on AVX2; a block some row's
// range check declines runs every row's elements of it on expShift, still
// in index order. Rows past g repeat row 0, and their sums are dropped.
func expShiftHeads(x []float32, n, g int, maxv *[HeadGroup]float32, t tier) ([HeadGroup]float64, int) {
	var sums [HeadGroup]float64
	var rows [HeadGroup]*float32
	for h := range rows {
		src := h
		if h >= g {
			src, maxv[h] = 0, maxv[0]
		}
		rows[h] = &x[src*n]
	}
	blk := 4
	if t == avx512Tier {
		blk = 8
	}
	end := n &^ (blk - 1)
	for i := 0; i < end; {
		if t == avx512Tier {
			i += expShiftHeadsAVX512(&rows, i, end-i, maxv, &sums)
		} else {
			i += expShiftHeadsAVX(&rows, i, end-i, maxv, &sums)
		}
		if i < end {
			for h := 0; h < g; h++ {
				sums[h] = expShift(x[h*n+i:][:blk], maxv[h], true, sums[h])
			}
			i += blk
		}
	}
	return sums, end
}

// AccumHeads adds n value rows into the outputs of heads <= HeadGroup
// heads side by side: dst[h][d] += w[h][r]*v[h][r*hd+d] for h < heads,
// d < hd = len(dst[h]) and r < n, rows in increasing r and a head's ±0
// weights skipped — each head's AttnAccumContig(w[h][:n], v[h], dst[h]),
// with the same bits. The 512-bit kernel takes every column, sixteen to
// a register with a masked last group; the AVX2 kernel takes hd's whole
// groups of eight and accumRows the rest.
func AccumHeads(heads, n int, w, v, dst *[HeadGroup][]float32) {
	accumHeads(heads, n, w, v, dst, panelTier)
}

func accumHeads(heads, n int, w, v, dst *[HeadGroup][]float32, t tier) {
	if heads < 1 || heads > HeadGroup {
		panic(fmt.Sprintf("tensor: AccumHeads of %d heads", heads))
	}
	hd := len(dst[0])
	for h := 0; h < heads; h++ {
		if len(dst[h]) != hd || len(w[h]) < n || len(v[h]) < n*hd {
			panic(fmt.Sprintf("tensor: AccumHeads head %d: weights %d, values %d, outputs %d for %d rows of dim %d",
				h, len(w[h]), len(v[h]), len(dst[h]), n, hd))
		}
	}
	if n == 0 || hd == 0 {
		return
	}
	if t == scalarTier {
		for h := 0; h < heads; h++ {
			accumRows(w[h][:n], v[h], hd, dst[h])
		}
		return
	}
	if heads == 1 || t == avx2Tier && hd < 8 {
		for h := 0; h < heads; h++ {
			AttnAccumContig(w[h][:n], v[h], dst[h])
		}
		return
	}
	var wp, vp, dp [HeadGroup]*float32
	for h := range wp {
		src := h
		if h >= heads {
			src = 0 // a repeat of head 0: the same inputs give the same outputs
		}
		wp[h], vp[h], dp[h] = &w[src][0], &v[src][0], &dst[src][0]
	}
	if t == avx512Tier {
		accHeadsAVX512(&wp, n, &vp, hd, &dp)
		return
	}
	accHeadsAVX(&wp, n, &vp, hd, &dp)
	if c := hd &^ 7; c < hd {
		for h := 0; h < heads; h++ {
			accumRows(w[h][:n], v[h][c:], hd, dst[h][c:])
		}
	}
}
