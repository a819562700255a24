package core

import (
	"fmt"
	"reflect"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// Determinism contract for the paged transformer under the full engine:
// the engine's batch-stepping pool (Config.Workers) and the transformer's
// intra-forward attention pool (transformer.Config.AttnWorkers) are two
// independent axes of parallelism, and the serving output must be
// byte-identical across every combination. Run under -race this also
// proves the attention pool's disjoint-span writes are race-clean while
// multiple engine workers step sessions concurrently.
func TestRunDeterministicAcrossAttnWorkers(t *testing.T) {
	mkModels := func(attnWorkers int) (model.Model, model.Model) {
		llm := transformer.New(transformer.Config{
			Name: "paged-llm", Vocab: 64, Hidden: 32, Heads: 4, FFN: 64,
			Layers: 2, Seed: 1, AttnWorkers: attnWorkers,
		})
		ssm := transformer.New(transformer.Config{
			Name: "paged-ssm", Vocab: 64, Hidden: 16, Heads: 2, FFN: 32,
			Layers: 1, Seed: 2, AttnWorkers: attnWorkers,
		})
		return llm, ssm
	}
	reqs := []workload.Request{
		{ID: 0, Prompt: []int{1, 2, 3, 4, 5}, MaxNewTok: 12},
		{ID: 1, Prompt: []int{9, 8, 7}, MaxNewTok: 12},
		{ID: 2, Prompt: []int{5, 5, 6, 6}, MaxNewTok: 12},
	}

	type outcome struct {
		res   []RequestResult
		iters []IterationRecord
	}
	var base *outcome
	for _, workers := range []int{1, 4} {
		for _, attn := range []int{1, 4} {
			name := fmt.Sprintf("workers=%d/attnworkers=%d", workers, attn)
			llm, ssm := mkModels(attn)
			res, iters := run(t, Config{
				Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
				Shape:  speculator.Shape{Expansion: tree.WidthConfig(2)[:3]},
				Sample: sampling.GreedyConfig(), Seed: 17,
				MaxBatch: 2, Workers: workers,
			}, reqs)
			if base == nil {
				base = &outcome{res, iters}
				continue
			}
			if !reflect.DeepEqual(base.res, res) {
				t.Fatalf("%s: results differ from workers=1/attnworkers=1", name)
			}
			if !reflect.DeepEqual(base.iters, iters) {
				t.Fatalf("%s: iteration records differ from workers=1/attnworkers=1", name)
			}
		}
	}

	// The paged sessions report their KV footprint, so every iteration
	// record must carry positive per-request cache accounting.
	for i, rec := range base.iters {
		for j, r := range rec.Reqs {
			if r.CacheBytes <= 0 {
				t.Fatalf("iter %d req %d: cache bytes %d, want positive", i, j, r.CacheBytes)
			}
		}
	}
}

// The n-gram substrate doesn't implement model.CacheSizer, so its records
// must report 0 bytes — present but inert accounting.
func TestCacheBytesZeroForNonSizerSessions(t *testing.T) {
	llm, _, reqs := testModels(t, 2, 8)
	_, iters := run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 3}, reqs)
	for i, rec := range iters {
		for _, r := range rec.Reqs {
			if r.CacheBytes != 0 {
				t.Fatalf("iter %d: n-gram session reported %d cache bytes", i, r.CacheBytes)
			}
		}
	}
}
