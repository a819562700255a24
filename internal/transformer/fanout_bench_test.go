package transformer

import (
	"fmt"
	"testing"

	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// BenchmarkAttentionFanout times one full tree pass of a one-layer model
// at the serving shapes (head dim 8 as the drafter, 16 as the LLM; 20 to
// 300 cached keys; 1 to 21 new rows) with the attention stage serial
// (workers=1) and split two ways (workers=2), both forced through
// Model.attnSplit. The projections are the same work in both, so the
// difference is the fan-out's cost or gain; attnParallelFloor sits where
// it changes sign. The row counts cover each
// item shape: one row (per-row items only), 3 (a four-lane block), 5 and
// 8 (one eight-lane block) and 21 (three blocks). Run with -cpu 1,2.
func BenchmarkAttentionFanout(b *testing.B) {
	for _, hd := range []int{8, 16} {
		for _, keys := range []int{20, 80, 300} {
			for _, rows := range []int{1, 3, 5, 8, 21} {
				for _, workers := range []int{1, 2} {
					name := fmt.Sprintf("hd=%d/keys=%d/rows=%d/workers=%d", hd, keys, rows, workers)
					b.Run(name, func(b *testing.B) {
						m := New(Config{
							Name: "fanout", Vocab: 256, Hidden: 4 * hd, Heads: 4, FFN: 160,
							Layers: 1, Seed: 5,
						})
						m.attnSplit = workers
						s := m.NewSession()
						prompt := make([]model.Token, keys)
						for i := range prompt {
							prompt[i] = model.Token(i * 7 % 256)
						}
						s.Prefill(prompt)
						t := tree.New(prompt[keys-1])
						for i := 1; i <= rows; i++ {
							t.AddChild(tree.NodeID((i-1)/3), model.Token(i*11%256), 0, 0)
						}
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							s.DecodeTree(t) // the same tree again: a full pass each time
						}
					})
				}
			}
		}
	}
}

// BenchmarkAttentionItems times one layer's attention stage alone, four
// heads over 280 cached and 10 prior rows, as per-row items and as
// blocks, for the row counts around attnBlockMin and the serving passes
// (3: an SSM draft wave, 20: a verify pass). The stage is built like a
// FuzzTreeAttention case, with ordinary values and a causal mask.
func BenchmarkAttentionItems(b *testing.B) {
	for _, hd := range []int{8, 16} {
		for _, rows := range []int{2, 3, 4, 5, 8, 20} {
			c := &attnCase{hd: hd, heads: 4, nNew: rows, nCached: 280, nPrior: 10, pageRows: kvcache.DefaultPageRows}
			c.data = make([]byte, 2*(c.nCached+c.nPrior+2*rows)*c.heads*hd+rows*hd*c.heads)
			for i := range c.data {
				c.data[i] = byte(100 + i*37%80) // values in [-1.25, 1.25), no specials
			}
			a := c.stage()
			a.mask = func(i, j int) bool { return j <= i }
			a.priorMask = func(i, j int) bool { return j%2 == 0 }
			run := func(b *testing.B) {
				items, bufLen := a.items()
				buf := make([]float32, bufLen)
				for n := 0; n < b.N; n++ {
					for it := 0; it < items; it++ {
						a.item(it, buf)
					}
				}
			}
			b.Run(fmt.Sprintf("hd=%d/rows=%d/perRow", hd, rows), run)
			var plan blockPlan
			if plan.build(rows, c.nPrior, a.mask, a.priorMask) {
				a.plan = &plan
				a.stageRows(tensor.NewScratch())
				b.Run(fmt.Sprintf("hd=%d/rows=%d/blocks", hd, rows), run)
			}
		}
	}
}
