// Boost-tuning and merge-based speculation (paper §3): fine-tune a pool
// of SSMs one at a time against the LLM's own outputs, filtering the
// prompt samples each newly tuned SSM already covers, then serve with the
// merged token trees of the whole pool and compare against a single SSM.
//
// Run with: go run ./examples/boosttune
package main

import (
	"fmt"
	"log"

	"specinfer/internal/bench"
	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/ngram"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

func main() {
	ds := workload.DatasetByName("Alpaca")
	pair := bench.Models(ds)
	rng := tensor.NewRNG(42)

	// A pool of three untrained SSMs to boost-tune against the LLM.
	pool := make([]speculator.Trainable, 3)
	for i := range pool {
		pool[i] = ngram.New(ngram.Config{
			Name:  fmt.Sprintf("boosted-ssm-%d", i),
			Vocab: ds.Vocab, Order: 2, Smoothing: 0.02, BackoffBase: 24, Sharpen: 1.5,
		})
	}

	prompts := pair.Markov.Prompts(rng, 150, 12)
	covered := speculator.BoostTune(pair.LLM, pool, prompts, speculator.BoostConfig{
		ContTokens: 8, MatchTokens: 2, Seed: 9,
	})
	fmt.Println("collective boost-tuning on 150 prompt samples:")
	for i, c := range covered {
		fmt.Printf("  after tuning SSM %d: %3d/%d samples covered (%.0f%%)\n",
			i, c, len(prompts), 100*float64(c)/float64(len(prompts)))
	}
	fmt.Println()

	// Serve the same trace with (a) one boosted SSM, (b) the merged pool.
	trace := pair.Trace(8, 64)
	serve := func(ssms []model.Model) float64 {
		eng, err := core.NewEngine(core.Config{
			Mode:     core.TreeSpec,
			LLM:      pair.LLM,
			SSMs:     ssms,
			Shape:    speculator.Shape{Expansion: tree.SequenceConfig(8)}, // per-SSM sequences, merged
			Sample:   sampling.GreedyConfig(),
			MaxBatch: 4,
			Seed:     5,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, _ := eng.Run(trace)
		var toks, steps int
		for _, r := range res {
			toks += len(r.Output)
			steps += r.Steps
		}
		return float64(toks) / float64(steps)
	}

	one := serve([]model.Model{pool[0]})
	all := serve([]model.Model{pool[0], pool[1], pool[2]})
	fmt.Printf("avg tokens per LLM step, single boosted SSM:  %.2f\n", one)
	fmt.Printf("avg tokens per LLM step, merged 3-SSM pool:   %.2f\n", all)
	fmt.Printf("merge-based gain: %.2fx\n", all/one)
}
