package transformer

import (
	"fmt"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/tree"
)

// BenchmarkAttentionFanout times one full tree pass of a one-layer model
// at the serving shapes (head dim 8 as the drafter, 16 as the LLM; 20 to
// 300 cached keys; 1 to 21 new rows) with the attention stage serial
// (workers=1) and on a two-worker pool (workers=2). The projections are
// the same work in both, so the difference is the fan-out's cost or gain;
// attnParallelFloor sits where it changes sign. Run with -cpu 1,2.
func BenchmarkAttentionFanout(b *testing.B) {
	for _, hd := range []int{8, 16} {
		for _, keys := range []int{20, 80, 300} {
			for _, rows := range []int{1, 5, 21} {
				for _, workers := range []int{1, 2} {
					name := fmt.Sprintf("hd=%d/keys=%d/rows=%d/workers=%d", hd, keys, rows, workers)
					b.Run(name, func(b *testing.B) {
						m := New(Config{
							Name: "fanout", Vocab: 256, Hidden: 4 * hd, Heads: 4, FFN: 160,
							Layers: 1, Seed: 5, AttnWorkers: workers,
						})
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
