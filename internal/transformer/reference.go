package transformer

import (
	"fmt"
	"math"

	"specinfer/internal/model"
	"specinfer/internal/tensor"
)

// This file keeps the pre-batching scalar forward path as a permanent
// reference implementation. It processes the new tokens one at a time with
// per-token MatVec calls and per-head scratch allocations — exactly the
// code the batched path replaced — and exists for two reasons:
//
//   - the golden bit-exactness tests assert that the batched path produces
//     float-for-float identical distributions and K/V rows, and
//   - the perf benchmarks measure the batched path's speedup against it
//     honestly, in the same binary on the same machine.

// refModel is a view of a Model whose sessions decode with the scalar
// reference path.
type refModel struct{ *Model }

// Reference returns a model.Model view of m whose sessions use the
// pre-batching scalar forward path over the pre-paging per-position
// slice KV cache. Sessions of the view are bit-exact with (but slower
// than) the batched sessions of m itself.
func (m *Model) Reference() model.Model { return refModel{m} }

// NewSession implements model.Model. The session swaps the paged arena
// for the pre-paging per-position slice cache the scalar path reads.
func (rm refModel) NewSession() model.Session {
	s := rm.Model.NewSession().(*Session)
	s.ref = true
	s.cache = nil
	s.cacheK = make([][][]float32, rm.cfg.Layers)
	s.cacheV = make([][][]float32, rm.cfg.Layers)
	return s
}

// forwardReference is the scalar forward pass: one token at a time,
// per-token projections, per-head score buffers. Semantics are identical
// to forwardBatched (see its doc comment); only the compute schedule — and
// the allocation count, O(layers × tokens × heads) — differs.
func (s *Session) forwardReference(tokens []model.Token, positions []int, mask func(i, j int) bool) (dists [][]float32, newK, newV [][][]float32) {
	cfg := s.m.cfg
	nNew := len(tokens)
	hd := cfg.headDim()
	scale := float32(1.0 / math.Sqrt(float64(hd)))
	if mask == nil {
		mask = func(i, j int) bool { return j <= i }
	}

	// Activations per new token.
	x := make([][]float32, nNew)
	for i, tok := range tokens {
		if tok < 0 || tok >= cfg.Vocab {
			panic(fmt.Sprintf("transformer: token %d out of vocab %d", tok, cfg.Vocab))
		}
		x[i] = cloneVec(s.m.embed.Row(tok))
		if cfg.Arch == ArchOPT {
			if positions[i] >= cfg.MaxSeq {
				panic(fmt.Sprintf("transformer: position %d exceeds MaxSeq %d", positions[i], cfg.MaxSeq))
			}
			tensor.Add(x[i], s.m.posEmbed.Row(positions[i]))
		}
	}

	newK = make([][][]float32, cfg.Layers)
	newV = make([][][]float32, cfg.Layers)
	h1 := make([]float32, cfg.Hidden)
	q := make([]float32, cfg.Hidden)
	attnOut := make([]float32, cfg.Hidden)
	proj := make([]float32, cfg.Hidden)
	gate := make([]float32, cfg.FFN)
	up := make([]float32, cfg.FFN)

	for l := 0; l < cfg.Layers; l++ {
		lw := &s.m.layers[l]
		cachedK, cachedV := s.cacheK[l], s.cacheV[l]
		nCached := len(cachedK)
		kRows := make([][]float32, nNew)
		vRows := make([][]float32, nNew)
		// New tokens are processed in order; the topology guarantees a
		// token only attends previously processed new tokens.
		for i := 0; i < nNew; i++ {
			s.m.norm(x[i], lw.attnNorm, lw.attnNormBias, h1)
			tensor.MatVec(lw.wq, h1, q)
			k := make([]float32, cfg.Hidden)
			v := make([]float32, cfg.Hidden)
			tensor.MatVec(lw.wk, h1, k)
			tensor.MatVec(lw.wv, h1, v)
			if cfg.Arch == ArchLLaMA {
				for h := 0; h < cfg.Heads; h++ {
					tensor.Rope(q[h*hd:(h+1)*hd], positions[i], s.m.ropeTheta)
					tensor.Rope(k[h*hd:(h+1)*hd], positions[i], s.m.ropeTheta)
				}
			}
			kRows[i], vRows[i] = k, v

			// Attention per head over cached positions + allowed new ones.
			for h := 0; h < cfg.Heads; h++ {
				qh := q[h*hd : (h+1)*hd]
				scores := make([]float32, nCached+i+1)
				for j := 0; j < nCached; j++ {
					scores[j] = tensor.Dot(qh, cachedK[j][h*hd:(h+1)*hd]) * scale
				}
				for j := 0; j <= i; j++ {
					if mask(i, j) {
						scores[nCached+j] = tensor.Dot(qh, kRows[j][h*hd:(h+1)*hd]) * scale
					} else {
						scores[nCached+j] = tensor.NegInf
					}
				}
				tensor.Softmax(scores)
				oh := attnOut[h*hd : (h+1)*hd]
				for d := 0; d < hd; d++ {
					oh[d] = 0
				}
				for j := 0; j < nCached; j++ {
					if scores[j] != 0 {
						tensor.Axpy(scores[j], cachedV[j][h*hd:(h+1)*hd], oh)
					}
				}
				for j := 0; j <= i; j++ {
					if scores[nCached+j] != 0 {
						tensor.Axpy(scores[nCached+j], vRows[j][h*hd:(h+1)*hd], oh)
					}
				}
			}
			tensor.MatVec(lw.wo, attnOut, proj)
			tensor.Add(x[i], proj)

			s.m.norm(x[i], lw.mlpNorm, lw.mlpNormBias, h1)
			if cfg.Arch == ArchOPT {
				// Two-projection ReLU MLP.
				tensor.MatVec(lw.wUp, h1, up)
				tensor.ReLU(up)
				tensor.MatVec(lw.wDown, up, proj)
			} else {
				// SwiGLU MLP.
				tensor.MatVec(lw.wGate, h1, gate)
				tensor.MatVec(lw.wUp, h1, up)
				tensor.SiLU(gate)
				for d := range gate {
					gate[d] *= up[d]
				}
				tensor.MatVec(lw.wDown, gate, proj)
			}
			tensor.Add(x[i], proj)
		}
		newK[l], newV[l] = kRows, vRows
	}

	dists = make([][]float32, nNew)
	logits := make([]float32, cfg.Vocab)
	normed := make([]float32, cfg.Hidden)
	for i := 0; i < nNew; i++ {
		s.m.norm(x[i], s.m.finalNorm, s.m.finalNormBias, normed)
		tensor.MatVec(s.m.lmHead, normed, logits)
		d := cloneVec(logits)
		tensor.Softmax(d)
		dists[i] = d
	}
	return dists, newK, newV
}
