package tensor

import "fmt"

// Contiguous-page attention kernels. The paged KV cache packs a head's
// rows back to back in one []float32 (row r at page[r*hd:(r+1)*hd]), so
// the score and value passes can stream a page without the [][]float32
// double indirection of the per-row kernels. Both kernels keep every
// per-element reduction in the same strictly-sequential order as their
// per-row counterparts (Dot, Axpy), so results are bit-identical — the
// layout changes which cache lines are touched, never the arithmetic.

// DotRowsContig4 computes out[r] = Dot(q, page[r*hd:(r+1)*hd]) for
// r in [0, len(out)), where hd = len(q) — one query against a page of
// keys, the attention-score kernel. Each score is an independent sequential reduction,
// bit-identical to a per-row Dot. With the AVX2 kernel and hd a multiple
// of 8, whole groups of 8 rows run on dotRowsAVX, one lane per row
// (DESIGN.md §18.3); the rest are register-blocked four rows per step
// (wider blocking spills row pointers and loses).
func DotRowsContig4(q, page []float32, out []float32) {
	hd := len(q)
	rows := len(out)
	if len(page) < rows*hd {
		panic(fmt.Sprintf("tensor: DotRowsContig4 page %d < rows %d * dim %d", len(page), rows, hd))
	}
	r := 0
	if hasPackedKernel && hd > 0 && hd%8 == 0 && rows >= 8 {
		r = dotRowsAVX(&q[0], &page[0], hd, rows, &out[0])
	}
	for ; r+3 < rows; r += 4 {
		// The two-step reslice gives each row slice a length the
		// bounds-check prover can tie to hd = len(q), keeping the inner
		// loop check-free (a single-step page[a:b] slice defeats it).
		base := r * hd
		p0 := page[base:][:hd]
		p1 := page[base+hd:][:hd]
		p2 := page[base+2*hd:][:hd]
		p3 := page[base+3*hd:][:hd]
		var s0, s1, s2, s3 float32
		for k := 0; k < hd; k++ {
			qk := q[k]
			s0 += p0[k] * qk
			s1 += p1[k] * qk
			s2 += p2[k] * qk
			s3 += p3[k] * qk
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < rows; r++ {
		out[r] = Dot(q, page[r*hd:][:hd])
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
// the oracle of its vector kernel: dst[d] += scores[r]*page[r*hd+d] for
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
