// Quickstart: tree-based speculative inference on the real (pure-Go)
// transformer substrate.
//
// It builds a small transformer "LLM" and a smaller "SSM", serves the same
// prompt with plain incremental decoding and with SpecInfer's tree-based
// speculation, and shows the two headline properties of the paper:
//
//  1. greedy outputs are token-for-token identical (verification is
//     lossless), and
//  2. speculation needs far fewer LLM decoding steps.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"specinfer/internal/bench"
	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tensor"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

func main() {
	llm := transformer.New(transformer.Config{
		Name: "demo-llm", Vocab: 96, Hidden: 48, Heads: 4, FFN: 96, Layers: 3, Seed: 11,
	})
	ssm := transformer.New(transformer.Config{
		Name: "demo-ssm", Vocab: 96, Hidden: 16, Heads: 2, FFN: 32, Layers: 1, Seed: 12,
	})
	// Distill the SSM from the LLM so it actually speculates well — the
	// neural counterpart of the paper's pre-trained/boost-tuned SSMs.
	rng := tensor.NewRNG(13)
	transformer.Distill(transformer.NewTrainer(ssm, 3e-3), llm, func() []int {
		p := make([]int, 4)
		for i := range p {
			p[i] = rng.Intn(96)
		}
		return p
	}, 8, 400, 14)

	reqs := []workload.Request{
		{ID: 0, Prompt: []int{3, 14, 15, 92, 65, 35}, MaxNewTok: 24},
		{ID: 1, Prompt: []int{2, 71, 82, 81, 8, 28}, MaxNewTok: 24},
	}

	run := func(mode core.Mode) []core.RequestResult {
		cfg := core.Config{
			Mode:   mode,
			LLM:    llm,
			SSMs:   []model.Model{ssm},
			Sample: sampling.GreedyConfig(),
			Seed:   1,
		}
		if mode == core.TreeSpec {
			cfg.Shape = speculator.Shape{Expansion: tree.ExpansionConfig{3, 1, 1, 1}}
		}
		eng, err := core.NewEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, _ := eng.Run(reqs)
		return res
	}

	inc := run(core.Incremental)
	spec := run(core.TreeSpec)

	fmt.Println("— part 1: losslessness on the real transformer substrate —")
	for i := range reqs {
		fmt.Printf("request %d\n", i)
		fmt.Printf("  incremental: %v  (%d steps)\n", inc[i].Output, inc[i].Steps)
		fmt.Printf("  tree-spec:   %v  (%d steps, %.2f tokens/step)\n",
			spec[i].Output, spec[i].Steps, spec[i].AvgCommitted())
		same := len(inc[i].Output) == len(spec[i].Output)
		for j := range inc[i].Output {
			if !same || inc[i].Output[j] != spec[i].Output[j] {
				same = false
				break
			}
		}
		fmt.Printf("  identical: %v\n\n", same)
	}

	// Part 2: with an SSM that actually approximates the LLM (the
	// calibrated n-gram pair: both trained on the same synthetic corpus,
	// the SSM with a structural capacity gap), speculation compresses
	// decoding steps by 3-4x.
	fmt.Println("— part 2: speedup with an aligned SSM —")
	pair := bench.Models(workload.DatasetByName("Alpaca"))
	trace := pair.Trace(3, 48)
	serve := func(mode core.Mode) []core.RequestResult {
		eng, err := core.NewEngine(core.Config{
			Mode:   mode,
			LLM:    pair.LLM,
			SSMs:   []model.Model{pair.SSM},
			Sample: sampling.GreedyConfig(),
			Seed:   1,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, _ := eng.Run(trace)
		return res
	}
	inc2 := serve(core.Incremental)
	spec2 := serve(core.TreeSpec)
	for i := range trace {
		fmt.Printf("request %d: incremental %d steps -> tree-spec %d steps (%.2f tokens/step), outputs identical: %v\n",
			i, inc2[i].Steps, spec2[i].Steps, spec2[i].AvgCommitted(),
			equal(inc2[i].Output, spec2[i].Output))
	}
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
