package core

import (
	"fmt"
	"reflect"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tensor"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// Incremental drafting (transformer.Session.DecodeTree forwarding only
// the nodes a grower appended since its last call) must leave every
// grower's trees unchanged. These tests run each grower on default SSM
// sessions and on Reference() oracle sessions and require identical
// trees, node for node and proposal distribution for proposal
// distribution, and identical engine output.

// requireSameTree compares two speculated trees bit for bit: structure,
// tokens, and every proposal's probability, SSM id and distribution.
func requireSameTree(t *testing.T, ctx string, got, want *tree.Tree) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d nodes, oracle %d", ctx, got.Len(), want.Len())
	}
	for id := range want.Nodes {
		g, w := got.Node(id), want.Node(id)
		if g.Token != w.Token || g.Parent != w.Parent || len(g.Proposals) != len(w.Proposals) {
			t.Fatalf("%s node %d: (tok %d, parent %d, %d draws), oracle (%d, %d, %d)",
				ctx, id, g.Token, g.Parent, len(g.Proposals), w.Token, w.Parent, len(w.Proposals))
		}
		for k, gp := range g.Proposals {
			wp := w.Proposals[k]
			if gp.Prob != wp.Prob || gp.SSMID != wp.SSMID || len(gp.Dist) != len(wp.Dist) {
				t.Fatalf("%s node %d draw %d: (%v, ssm %d), oracle (%v, ssm %d)",
					ctx, id, k, gp.Prob, gp.SSMID, wp.Prob, wp.SSMID)
			}
			for x := range wp.Dist {
				if gp.Dist[x] != wp.Dist[x] {
					t.Fatalf("%s node %d draw %d: proposal dist differs at %d: %v vs %v",
						ctx, id, k, x, gp.Dist[x], wp.Dist[x])
				}
			}
		}
	}
}

// TestIncrementalGrowersBitExact drives each tree grower — static TopK,
// static SampleK, a merged 2-SSM ensemble, adaptive, and the policy
// speculator — over a few speculate/accept rounds on incremental SSM
// sessions and on Reference() oracle sessions, for both architectures
// and AttnWorkers 1 and 4.
func TestIncrementalGrowersBitExact(t *testing.T) {
	greedy := sampling.GreedyConfig()
	stoch := sampling.StochasticConfig()
	growers := []struct {
		name  string
		nSSM  int
		cfg   speculator.Config
		shape speculator.Shape
	}{
		{"static-topk", 1, speculator.Config{Sample: greedy},
			speculator.Shape{Expansion: tree.PaperDefault()}},
		{"static-samplek", 1, speculator.Config{Sample: stoch, Seed: 5},
			speculator.Shape{Expansion: tree.ExpansionConfig{2, 3, 1, 2}}},
		{"ensemble-2ssm", 2, speculator.Config{Sample: greedy},
			speculator.Shape{Expansion: tree.PaperDefault()}},
		{"adaptive", 1, speculator.Config{Sample: greedy},
			speculator.Shape{Budget: tree.Budget{MaxNodes: 16, FanoutCap: 8}}},
		{"policy", 2, speculator.Config{Sample: stoch},
			speculator.Shape{Budget: tree.Budget{MaxNodes: 12, MaxDepth: 6, FanoutCap: 3}, SSMs: 2}},
	}
	for _, arch := range []transformer.Arch{transformer.ArchLLaMA, transformer.ArchOPT} {
		for _, workers := range []int{1, 4} {
			incSSMs := make([]model.Model, 2)
			refSSMs := make([]model.Model, 2)
			for i := range incSSMs {
				m := transformer.New(transformer.Config{
					Name: "inc-ssm", Arch: arch, Vocab: 48, Hidden: 16, Heads: 2, FFN: 32,
					Layers: 2, Seed: uint64(60 + i), AttnWorkers: workers,
				})
				incSSMs[i], refSSMs[i] = m, m.Reference()
			}
			for _, g := range growers {
				// The SSMs carry float32 weights; quant=false in the name
				// records that no quantized model takes part.
				t.Run(fmt.Sprintf("%s/w%d/quant=false/%s", arch, workers, g.name), func(t *testing.T) {
					inc := speculator.New(g.cfg, incSSMs[:g.nSSM]...)
					oracle := speculator.New(g.cfg, refSSMs[:g.nSSM]...)
					rng := tensor.NewRNG(313)
					prompt := []model.Token{4, 8, 15, 16, 23, 42}
					inc.Prefill(prompt)
					oracle.Prefill(prompt)
					root := prompt[len(prompt)-1]
					for round := 0; round < 3; round++ {
						got, want := inc.Speculate(root, g.shape), oracle.Speculate(root, g.shape)
						requireSameTree(t, fmt.Sprintf("round %d", round), got, want)
						// Commit a random path of the tree plus a bonus token.
						var accepted []model.Token
						u := got.Root()
						for len(got.Node(u).Children) > 0 && rng.Intn(4) > 0 {
							u = got.Node(u).Children[rng.Intn(len(got.Node(u).Children))]
							accepted = append(accepted, got.Node(u).Token)
						}
						accepted = append(accepted, rng.Intn(48))
						inc.Accept(accepted)
						oracle.Accept(accepted)
						root = accepted[len(accepted)-1]
					}
				})
			}
		}
	}
}

// TestEngineIncrementalDraftMatchesReferenceSSM: whole engine runs with
// incremental SSM sessions and with the SSM swapped for its Reference()
// variant must emit the same tokens — greedy tree speculation, and
// stochastic MSS with the speculation policy on. Two drafters: the LLM's
// own weights (every draft accepted, so Accept serves long paths from
// retention) and an unaligned small model (frequent misses).
func TestEngineIncrementalDraftMatchesReferenceSSM(t *testing.T) {
	llmCfg := transformer.Config{Name: "inc-llm", Vocab: 64, Hidden: 32, Heads: 4, FFN: 64, Layers: 2, Seed: 71}
	llm := transformer.New(llmCfg)
	drafters := map[string]*transformer.Model{
		"oracle-drafter": transformer.New(llmCfg),
		"random-drafter": transformer.New(transformer.Config{
			Name: "inc-ssm", Vocab: 64, Hidden: 16, Heads: 2, FFN: 32, Layers: 1, Seed: 72,
		}),
	}
	reqs := []workload.Request{
		{ID: 0, Prompt: []int{1, 2, 3, 4, 5}, MaxNewTok: 24},
		{ID: 1, Prompt: []int{9, 8, 7}, MaxNewTok: 24},
		{ID: 2, Prompt: []int{5, 5, 6, 6}, MaxNewTok: 24},
	}
	modes := map[string]Config{
		"greedy-tree": {Mode: TreeSpec, Sample: sampling.GreedyConfig()},
		// A cold temperature: best-first drafts record a point-mass
		// proposal, so a draft is accepted with the LLM's probability
		// of it, and the oracle drafter's argmax drafts must be nearly
		// certain for long accepted paths to exercise retention.
		"stochastic-mss-pol": {Mode: TreeSpec, Sample: sampling.Config{Mode: sampling.Stochastic, Temperature: 0.1}, Policy: &policy.Config{}},
	}
	for dname, ssm := range drafters {
		for mname, cfg := range modes {
			t.Run(dname+"/"+mname, func(t *testing.T) {
				cfg.LLM, cfg.Seed, cfg.MaxBatch = llm, 29, 2
				cfg.SSMs = []model.Model{ssm}
				inc, _ := run(t, cfg, reqs)
				cfg.SSMs = []model.Model{ssm.Reference()}
				ref, _ := run(t, cfg, reqs)
				toks, steps := 0, 0
				for i := range ref {
					if !reflect.DeepEqual(inc[i].Output, ref[i].Output) {
						t.Fatalf("request %d: incremental drafting changed the output:\n%v\n%v",
							i, inc[i].Output, ref[i].Output)
					}
					toks += len(inc[i].Output)
					steps += inc[i].Steps
				}
				// The drafter that shares the LLM's weights must commit
				// long accepted paths, or retention was never exercised.
				if dname == "oracle-drafter" && 2*steps > toks {
					t.Fatalf("oracle drafter committed %d tokens in %d steps", toks, steps)
				}
			})
		}
	}
}
