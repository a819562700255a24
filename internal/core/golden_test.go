package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
)

// TestStochasticOutputsGolden pins the tokens of stochastic offline runs
// to hashes recorded before the sampling path's vector kernels existed.
// Every configuration samples through sampling.Config.Transform's
// temperature power, so a kernel, a buffer reuse or a short cut that
// changes any sampled distribution's bits changes a token here. The
// distributional tests elsewhere cannot see such a change; this test can.
func TestStochasticOutputsGolden(t *testing.T) {
	llm, ssm, reqs := testModels(t, 6, 40)
	tfLLM := transformer.New(transformer.Config{
		Name: "tf-llm", Vocab: 192, Hidden: 32, Heads: 4, FFN: 64, Layers: 2, Seed: 1,
	})
	tfSSM := transformer.New(transformer.Config{
		Name: "tf-ssm", Vocab: 192, Hidden: 16, Heads: 2, FFN: 32, Layers: 1, Seed: 2,
	})
	temp := func(t float64) sampling.Config { return sampling.Config{Mode: sampling.Stochastic, Temperature: t} }
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"T0.7/mss/policy", Config{
			Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm}, Sample: temp(0.7),
			Seed: 3, MaxBatch: 4, Policy: &policy.Config{},
		}, "ac336193979ce836"},
		{"T0.7/traversal", Config{
			Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm}, Sample: temp(0.7),
			Seed: 4, MaxBatch: 4, Verifier: VerifierTraversal,
		}, "9c98047ad5fe566c"},
		{"T0.7/naive", Config{
			Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm}, Sample: temp(0.7),
			Seed: 5, MaxBatch: 4, Verifier: VerifierNaive,
		}, "de7055b02ad9e770"},
		{"T0.7/incremental", Config{
			Mode: Incremental, LLM: llm, Sample: temp(0.7), Seed: 6, MaxBatch: 4,
		}, "bff1cee897b17063"},
		{"T0.3/topk20", Config{
			Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
			Sample: sampling.Config{Mode: sampling.Stochastic, Temperature: 0.3, TopK: 20},
			Seed:   7, MaxBatch: 4,
		}, "229415d5994c012e"},
		{"T1.5/topp0.9", Config{
			Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
			Sample: sampling.Config{Mode: sampling.Stochastic, Temperature: 1.5, TopP: 0.9},
			Seed:   8, MaxBatch: 4,
		}, "db9d8b1d3eb1822b"},
		{"T0.7/transformer", Config{
			Mode: TreeSpec, LLM: tfLLM, SSMs: []model.Model{tfSSM}, Sample: temp(0.7),
			Expansion: tree.WidthConfig(3)[:4], Seed: 9, MaxBatch: 4,
		}, "f95a3cea61c61ca6"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				cfg := c.cfg
				cfg.Workers = workers
				res, _ := run(t, cfg, reqs)
				h := fnv.New64a()
				var buf [8]byte
				for _, r := range res {
					if r.Err != nil {
						t.Fatalf("workers %d: request %d failed: %v", workers, r.ID, r.Err)
					}
					binary.LittleEndian.PutUint64(buf[:], uint64(len(r.Output)))
					h.Write(buf[:])
					for _, tok := range r.Output {
						binary.LittleEndian.PutUint64(buf[:], uint64(tok))
						h.Write(buf[:])
					}
				}
				if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
					t.Errorf("workers %d: output hash %s, want %s", workers, got, c.want)
				}
			}
		})
	}
}
