package tensor

import "fmt"

// Paged-cache attention kernels (DESIGN.md §18, §27). The paged KV cache
// keeps each head's values position-major, row r at page[r*hd:][:hd],
// and its keys dim-major, element k of key r at page[k*stride+r], so the
// score pass multiplies one broadcast query element into whole vectors of
// consecutive keys, and the value pass streams a page without the
// [][]float32 double indirection of the per-row kernels. Every kernel
// keeps each per-element reduction in the same strictly-sequential order
// as its per-row counterpart (Dot, Axpy), so results are bit-identical —
// the layout changes which cache lines are touched, never the arithmetic.

// DotKeys scores one query against a dim-major run of keys, the
// attention-score kernel: out[r] = Dot(q, key r) * scale for r <
// len(out), where element k of key r is keys[k*stride+r]. Each score is
// its own sequential reduction over k, bit-identical to a per-row Dot
// followed by a Scale pass. The kernels put sixteen (AVX-512) or eight
// (AVX2) consecutive keys in one register, one lane each, and a masked
// last group takes the keys that do not fill one.
func DotKeys(q, keys []float32, stride int, scale float32, out []float32) {
	dotKeys(q, keys, stride, scale, out, panelTier)
}

func dotKeys(q, keys []float32, stride int, scale float32, out []float32, t tier) {
	hd, n := len(q), len(out)
	if n > stride || hd > 0 && n > 0 && len(keys) < (hd-1)*stride+n {
		panic(fmt.Sprintf("tensor: DotKeys %d keys of dim %d at stride %d in %d floats", n, hd, stride, len(keys)))
	}
	if n == 0 {
		return
	}
	switch {
	case hd == 0:
	case t == avx512Tier:
		dotKeysAVX512(&q[0], hd, &keys[0], stride, n, scale, &out[0])
		return
	case t == avx2Tier:
		dotKeysAVX(&q[0], hd, &keys[0], stride, n, scale, &out[0])
		return
	}
	dotKeysLoop(q, keys, stride, scale, out)
}

// dotKeysLoop is DotKeys' portable loop and its kernels' oracle: every
// score Dot's chain, from +0 over k in increasing order, then scaled.
func dotKeysLoop(q, keys []float32, stride int, scale float32, out []float32) {
	for r := range out {
		var s float32
		for k, qk := range q {
			s += qk * keys[k*stride+r]
		}
		out[r] = s * scale
	}
}

// AttnAccumContig accumulates dst += scores[r] * page[r*hd:(r+1)*hd] for
// r in [0, len(scores)), hd = len(dst), skipping zero scores — the
// paged-cache form of the per-row Axpy loop over masked-softmax weights.
// Rows are processed in increasing r with the same per-element order as
// Axpy, so the accumulation is bit-identical to the per-row loop. With
// the AVX2 kernel, attnAccumAVX takes the first hd&^3 elements, one lane
// each (DESIGN.md §18.3), and accumRows the rest.
func AttnAccumContig(scores, page, dst []float32) {
	hd := len(dst)
	if len(page) < len(scores)*hd {
		panic(fmt.Sprintf("tensor: AttnAccumContig page %d < rows %d * dim %d", len(page), len(scores), hd))
	}
	n := len(scores)
	if hasPackedKernel && hd >= 4 && n > 0 {
		if c := attnAccumAVX(&scores[0], n, &page[0], hd, &dst[0]); c < hd {
			accumRows(scores, page[c:], hd, dst[c:])
		}
		return
	}
	r := 0
	for ; r+3 < n; r += 4 {
		w0, w1, w2, w3 := scores[r], scores[r+1], scores[r+2], scores[r+3]
		if w0 == 0 || w1 == 0 || w2 == 0 || w3 == 0 {
			// A masked slot in the block: fall back to the per-row loop so
			// zero-weight rows contribute no add at all (adding an exact
			// +0.0 could still flip a -0.0 accumulator).
			accumRows(scores[r:r+4], page[r*hd:][:4*hd], hd, dst)
			continue
		}
		base := r * hd
		p0 := page[base:][:hd]
		p1 := page[base+hd:][:hd]
		p2 := page[base+2*hd:][:hd]
		p3 := page[base+3*hd:][:hd]
		// Register-blocked: dst[d] accumulates the four rows' terms in row
		// order through a register, identical per-element add sequence to
		// the per-row loop but with one store per element per four rows.
		for d := 0; d < hd; d++ {
			s := dst[d]
			s += w0 * p0[d]
			s += w1 * p1[d]
			s += w2 * p2[d]
			s += w3 * p3[d]
			dst[d] = s
		}
	}
	accumRows(scores[r:], page[r*hd:], hd, dst)
}

// accumRows is the per-row remainder/fallback of AttnAccumContig, and
// the oracle of the value kernels: dst[d] += scores[r]*page[r*hd+d] for
// d < len(dst), rows in increasing r, zero weights skipped. dst may be a
// leading part of a row (with page offset to match).
func accumRows(scores, page []float32, hd int, dst []float32) {
	for r, w := range scores {
		if w == 0 {
			continue
		}
		row := page[r*hd:][:len(dst)]
		for d, v := range row {
			dst[d] += w * v
		}
	}
}
