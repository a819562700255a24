package transformer

import (
	"sync"
	"sync/atomic"

	"specinfer/internal/kvcache"
	"specinfer/internal/tensor"
)

// attnStage is one layer's attention stage of a batched forward pass.
// Every new row i attends the whole committed cache, the prior rows j of
// an incremental tree pass with priorMask(i, j), and the pass's own rows
// j <= i with mask(i, j). Work items are one (row, head) pair or one
// (block, head) pair (DESIGN.md §21), except in a one-row pass, whose one
// item is the whole layer, every head side by side (§27); each writes a
// disjoint span of out, and no item reads another's output, so the items
// may run in any order on any number of workers without changing a bit.
type attnStage struct {
	heads, hd int
	scale     float32
	q, out    *tensor.Matrix // nNew x hidden
	cache     *kvcache.Arena
	layer     int
	nCached   int

	kRows, vRows    [][]float32 // the pass's new rows, full hidden width
	priorK, priorV  [][]float32 // retained rows of earlier tree passes
	mask, priorMask func(i, j int) bool

	// plan, when non-nil, runs the leading rows as blocks; the rows
	// after plan.blocked() go one at a time.
	plan *blockPlan
	// Head-major copies of the prior and new K/V rows for the blocks,
	// laid out like cache pages: head h's values of a segment back to
	// back, and its keys dim-major, element k of the segment's rows at
	// stride the segment's row count.
	kPrior, vPrior, kNew, vNew []float32
}

// attnBlockMin is the fewest rows a block may carry. The lanes a block
// does not use repeat its last row: its scores cost a full block's, its
// softmax and value passes half of one up to four rows. Two rows run
// faster one at a time (BenchmarkAttentionFanout, DESIGN.md §21).
const attnBlockMin = 3

// blockPlan is a forward pass's split of its new rows into blocks of
// tensor.BlockLanes consecutive rows, with the tree mask evaluated once
// per pass rather than once per layer and head: bits[b*(nPrior+nNew)+j]
// has bit i set iff lane i of block b attends key j of the prior-then-
// in-pass segments. Lanes past a partial block's rows repeat its last row.
type blockPlan struct {
	blocks, nPrior, nNew int
	last                 int // rows in the last block
	bits                 []uint8
}

// build plans nNew rows under the pass's masks. It reports false, leaving
// every row to the per-row items, when no block would reach attnBlockMin
// rows.
func (p *blockPlan) build(nNew, nPrior int, mask, priorMask func(i, j int) bool) bool {
	p.blocks = nNew / tensor.BlockLanes
	p.last = tensor.BlockLanes
	if rem := nNew % tensor.BlockLanes; rem >= attnBlockMin {
		p.blocks++
		p.last = rem
	}
	if p.blocks == 0 {
		return false
	}
	p.nPrior, p.nNew = nPrior, nNew
	w := nPrior + nNew
	if cap(p.bits) < p.blocks*w {
		p.bits = make([]uint8, p.blocks*w)
	}
	p.bits = p.bits[:p.blocks*w]
	clear(p.bits)
	for b := 0; b < p.blocks; b++ {
		bits := p.bits[b*w:][:w]
		r0, size := b*tensor.BlockLanes, p.size(b)
		for li := 0; li < size; li++ {
			i, bit := r0+li, uint8(1)<<li
			for j := 0; j < nPrior; j++ {
				if priorMask(i, j) {
					bits[j] |= bit
				}
			}
			for j := 0; j <= i; j++ {
				if mask(i, j) {
					bits[nPrior+j] |= bit
				}
			}
		}
		if size < tensor.BlockLanes {
			lastBit, pad := uint8(1)<<(size-1), uint8(0xFF)<<size
			for j, m := range bits {
				if m&lastBit != 0 {
					bits[j] = m | pad
				}
			}
		}
	}
	return true
}

// size is the number of rows in block b.
func (p *blockPlan) size(b int) int {
	if b == p.blocks-1 {
		return p.last
	}
	return tensor.BlockLanes
}

// blocked is the number of leading rows the blocks cover.
func (p *blockPlan) blocked() int { return (p.blocks-1)*tensor.BlockLanes + p.last }

// stageRows lays the prior and new rows out head-major in the scratch arena,
// once per layer, for the blocks' contiguous-row kernels.
func (a *attnStage) stageRows(scr *tensor.Scratch) {
	a.kPrior = headMajorKeys(scr, "kprior", a.priorK, a.heads, a.hd)
	a.vPrior = headMajor(scr, "vprior", a.priorV, a.heads, a.hd)
	a.kNew = headMajorKeys(scr, "knew", a.kRows, a.heads, a.hd)
	a.vNew = headMajor(scr, "vnew", a.vRows, a.heads, a.hd)
}

func headMajor(scr *tensor.Scratch, key string, rows [][]float32, heads, hd int) []float32 {
	n := len(rows)
	dst := scr.Floats(key, heads*n*hd)
	for j, row := range rows {
		for h := 0; h < heads; h++ {
			copy(dst[(h*n+j)*hd:][:hd], row[h*hd:][:hd])
		}
	}
	return dst
}

// headMajorKeys is headMajor with each head's rows dim-major, like a key
// page: element k of row j of head h at [(h*hd+k)*n+j].
func headMajorKeys(scr *tensor.Scratch, key string, rows [][]float32, heads, hd int) []float32 {
	n := len(rows)
	dst := scr.Floats(key, heads*n*hd)
	for j, row := range rows {
		for c, x := range row[:heads*hd] {
			dst[c*n+j] = x
		}
	}
	return dst
}

// items returns the stage's work-item count and the score scratch one
// item needs.
func (a *attnStage) items() (items, bufLen int) {
	nNew := a.q.Rows
	nKeys := a.nCached + len(a.priorK) + nNew
	if nNew == 1 {
		return 1, a.heads * nKeys
	}
	perRow := nNew
	bufLen = nKeys
	if a.plan != nil {
		perRow -= a.plan.blocked()
		bufLen = (2*a.hd + nKeys) * tensor.BlockLanes
		items = a.plan.blocks * a.heads
	}
	return items + perRow*a.heads, bufLen
}

// item runs work item it: the blocks first, then the per-row items, each
// head-outer, so consecutive items share a head and its cached pages stay
// hot across them. A one-row pass's only item is oneRow.
func (a *attnStage) item(it int, buf []float32) {
	if a.q.Rows == 1 {
		a.oneRow(buf)
		return
	}
	first := 0
	if a.plan != nil {
		nb := a.plan.blocks
		if it < nb*a.heads {
			a.block(it%nb, it/nb, buf)
			return
		}
		it -= nb * a.heads
		first = a.plan.blocked()
	}
	rest := a.q.Rows - first
	a.row(first+it%rest, it/rest, buf)
}

// row attends new row i at head h. The cached segment is dense (every
// new row sees the whole committed context): each head's keys and values
// are read from the paged arena as a handful of contiguous page slices
// streamed by the page kernels.
func (a *attnStage) row(i, h int, buf []float32) {
	hd, nCached := a.hd, a.nCached
	scores := buf[:nCached+len(a.priorK)+i+1]
	a.rowScores(i, h, scores)
	tensor.SoftmaxMasked(scores)
	oh := a.out.Row(i)[h*hd : (h+1)*hd]
	clear(oh)
	pageRows := a.cache.PageRows()
	vPages := a.cache.VPages(a.layer, h)
	for p, o := 0, 0; o < nCached; p++ {
		rows := min(pageRows, nCached-o)
		tensor.AttnAccumContig(scores[o:o+rows], vPages[p], oh)
		o += rows
	}
	a.rowValues(i, h, scores, oh)
}

// rowScores sets scores, nCached+nPrior+i+1 long, to row i's scores at
// head h: the cached keys page by page on the dim-major key kernel, then
// the prior rows and the pass's rows up to i, each the reference's dot
// then its scale, or NegInf where the mask hides the key.
func (a *attnStage) rowScores(i, h int, scores []float32) {
	hd, nCached, nPrior := a.hd, a.nCached, len(a.priorK)
	qh := a.q.Row(i)[h*hd : (h+1)*hd]
	pageRows := a.cache.PageRows()
	kPages := a.cache.KPages(a.layer, h)
	for p, o := 0, 0; o < nCached; p++ {
		rows := min(pageRows, nCached-o)
		tensor.DotKeys(qh, kPages[p], pageRows, a.scale, scores[o:o+rows])
		o += rows
	}
	for j := 0; j < nPrior; j++ {
		if a.priorMask(i, j) {
			scores[nCached+j] = tensor.Dot(qh, a.priorK[j][h*hd:(h+1)*hd]) * a.scale
		} else {
			scores[nCached+j] = tensor.NegInf
		}
	}
	newScores := scores[nCached+nPrior:]
	for j := 0; j <= i; j++ {
		if a.mask(i, j) {
			newScores[j] = tensor.Dot(qh, a.kRows[j][h*hd:(h+1)*hd]) * a.scale
		} else {
			newScores[j] = tensor.NegInf
		}
	}
}

// rowValues adds row i's prior and in-pass value terms at head h to oh,
// in key order after the cached ones, skipping zero weights.
func (a *attnStage) rowValues(i, h int, scores, oh []float32) {
	hd, nCached, nPrior := a.hd, a.nCached, len(a.priorK)
	for j := 0; j < nPrior; j++ {
		if scores[nCached+j] != 0 {
			tensor.Axpy(scores[nCached+j], a.priorV[j][h*hd:(h+1)*hd], oh)
		}
	}
	newScores := scores[nCached+nPrior:]
	for j := 0; j <= i; j++ {
		if newScores[j] != 0 {
			tensor.Axpy(newScores[j], a.vRows[j][h*hd:(h+1)*hd], oh)
		}
	}
}

// oneRow attends a one-row pass's row at every head (DESIGN.md §27).
// Each head's scores are the per-row item's, in its own nKeys-long span
// of buf; the softmax and the cached segment's value accumulation then
// carry up to tensor.HeadGroup heads side by side, each head's chains in
// the per-row item's order, so every head's output has the per-row
// item's bits.
func (a *attnStage) oneRow(buf []float32) {
	hd, nCached := a.hd, a.nCached
	nKeys := nCached + len(a.priorK) + 1
	for h := 0; h < a.heads; h++ {
		a.rowScores(0, h, buf[h*nKeys:][:nKeys])
	}
	tensor.SoftmaxHeads(buf[:a.heads*nKeys], nKeys)

	out := a.out.Row(0)
	clear(out)
	pageRows := a.cache.PageRows()
	var w, v, dst [tensor.HeadGroup][]float32
	for h0 := 0; h0 < a.heads; h0 += tensor.HeadGroup {
		g := min(tensor.HeadGroup, a.heads-h0)
		for i := 0; i < g; i++ {
			dst[i] = out[(h0+i)*hd:][:hd]
		}
		for p, o := 0, 0; o < nCached; p++ {
			rows := min(pageRows, nCached-o)
			for i := 0; i < g; i++ {
				w[i] = buf[(h0+i)*nKeys+o:][:rows]
				v[i] = a.cache.VPages(a.layer, h0+i)[p]
			}
			tensor.AccumHeads(g, rows, &w, &v, &dst)
			o += rows
		}
		for i := 0; i < g; i++ {
			a.rowValues(0, h0+i, buf[(h0+i)*nKeys:][:nKeys], dst[i])
		}
	}
}

// block attends the rows of block b at head h, one lane each, on the
// blocked kernels: every cached, prior and in-pass key row is read once
// for the whole block. The block's keys are the cached and prior
// segments and the in-pass rows up to its last row; a lane's in-pass
// keys after its own row are masked like any other, which the softmax
// treats exactly as the shorter row the per-row item scores. Each lane
// gets the per-row item's bits: the same dot-then-scale per score, NegInf
// written over masked scores after the dot (so no unmasked score
// changes), the masked softmax over the row's keys, and the value rows
// accumulated in key order with ±0 weights skipped.
func (a *attnStage) block(b, h int, buf []float32) {
	const lanes = tensor.BlockLanes
	p := a.plan
	hd, nCached, nPrior := a.hd, a.nCached, len(a.priorK)
	r0, size := b*lanes, p.size(b)
	nIn := r0 + size
	nKeys := nCached + nPrior + nIn
	qT := buf[:hd*lanes]
	acc := buf[hd*lanes : 2*hd*lanes]
	sc := buf[2*hd*lanes:][:nKeys*lanes]
	var lens [lanes]int // each row's score count
	for li := range lens {
		i := r0 + min(li, size-1)
		for k, v := range a.q.Row(i)[h*hd:][:hd] {
			qT[k*lanes+li] = v
		}
		lens[li] = nCached + nPrior + i + 1
	}

	pageRows := a.cache.PageRows()
	kPages := a.cache.KPages(a.layer, h)
	for pg, o := 0, 0; o < nCached; pg++ {
		rows := min(pageRows, nCached-o)
		tensor.DotBlock(qT, kPages[pg], pageRows, rows, a.scale, sc[o*lanes:])
		o += rows
	}
	tensor.DotBlock(qT, a.kPrior[h*nPrior*hd:], nPrior, nPrior, a.scale, sc[nCached*lanes:])
	tensor.DotBlock(qT, a.kNew[h*p.nNew*hd:], p.nNew, nIn, a.scale, sc[(nCached+nPrior)*lanes:])
	masked := sc[nCached*lanes:]
	for j, m := range p.bits[b*(nPrior+p.nNew):][:nPrior+nIn] {
		if m == 0xFF {
			continue
		}
		key := masked[j*lanes:][:lanes]
		for li := range key {
			if m&(1<<li) == 0 {
				key[li] = tensor.NegInf
			}
		}
	}
	tensor.SoftmaxBlock(sc, nKeys, lens[:size])

	clear(acc)
	vPages := a.cache.VPages(a.layer, h)
	for pg, o := 0, 0; o < nCached; pg++ {
		rows := min(pageRows, nCached-o)
		tensor.AccumBlock(sc[o*lanes:], rows, vPages[pg], acc, size)
		o += rows
	}
	tensor.AccumBlock(sc[nCached*lanes:], nPrior, a.vPrior[h*nPrior*hd:], acc, size)
	tensor.AccumBlock(sc[(nCached+nPrior)*lanes:], nIn, a.vNew[h*p.nNew*hd:], acc, size)
	for li := 0; li < size; li++ {
		copy(a.out.Row(r0 + li)[h*hd:][:hd], acc[li*hd:][:hd])
	}
}

// attnParallelFloor is the minimum number of multiply-adds in one layer's
// attention stage (new rows × heads × keys × head dim, as the per-row
// items count them) below which an implicit (GOMAXPROCS-sized) worker
// pool falls back to the serial loop: spawning goroutines costs more than
// it saves (BenchmarkAttentionFanout, DESIGN.md §18.5 and §21).
const attnParallelFloor = 1 << 18

// runAttention executes one layer's attention work items, either serially
// or on a bounded goroutine pool (Config.AttnWorkers). Workers claim
// items from an atomic counter and each item is computed by exactly the
// same code on the same read-only inputs regardless of which worker runs
// it, so outputs are bit-identical for every pool size; only the score
// scratch is per-worker.
func (s *Session) runAttention(a *attnStage) {
	items, bufLen := a.items()
	nw := min(s.attnPool, items)
	if !s.attnExplicit && a.q.Rows*a.heads*(a.nCached+len(a.priorK)+a.q.Rows)*a.hd < attnParallelFloor {
		nw = 1
	}
	if nw <= 1 {
		buf := s.ws.scr.Floats("scores", bufLen)
		for it := 0; it < items; it++ {
			a.item(it, buf)
		}
		return
	}
	bufs := s.ws.scr.Mat("pscores", nw, bufLen)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(w int) {
			defer wg.Done()
			buf := bufs.Row(w)
			for {
				it := int(next.Add(1)) - 1
				if it >= items {
					return
				}
				a.item(it, buf)
			}
		}(w)
	}
	wg.Wait()
}
