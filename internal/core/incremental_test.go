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
// sessions and on full-rescoring oracle sessions and require identical
// trees, node for node and proposal distribution for proposal
// distribution, and identical engine output.

// rescoring is the full-rescore oracle for any transformer variant: its
// sessions hand the inner session a fresh copy of the tree on every
// DecodeTree, which the transformer always scores in full.
type rescoring struct{ model.Model }

func (r rescoring) NewSession() model.Session { return rescoringSession{r.Model.NewSession()} }

type rescoringSession struct{ model.Session }

func (s rescoringSession) DecodeTree(t *tree.Tree) [][]float32 {
	c := &tree.Tree{Nodes: make([]tree.Node, t.Len())}
	for i, n := range t.Nodes {
		n.Children = append([]tree.NodeID(nil), n.Children...)
		c.Nodes[i] = n
	}
	return s.Session.DecodeTree(c)
}

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
// sessions and on oracle sessions (Reference() for float SSMs, full
// rescoring for Quantized() ones), for both architectures and
// AttnWorkers 1 and 4.
func TestIncrementalGrowersBitExact(t *testing.T) {
	greedy := sampling.GreedyConfig()
	stoch := sampling.StochasticConfig()
	growers := []struct {
		name string
		nSSM int
		mk   func(ssms []model.Model) treeSpeculator
	}{
		{"static-topk", 1, func(ssms []model.Model) treeSpeculator {
			return speculator.New(speculator.Config{Expansion: tree.PaperDefault(), Sample: greedy}, ssms...)
		}},
		{"static-samplek", 1, func(ssms []model.Model) treeSpeculator {
			return speculator.New(speculator.Config{Expansion: tree.ExpansionConfig{2, 3, 1, 2}, Sample: stoch, Seed: 5}, ssms...)
		}},
		{"ensemble-2ssm", 2, func(ssms []model.Model) treeSpeculator {
			return speculator.New(speculator.Config{Expansion: tree.PaperDefault(), Sample: greedy}, ssms...)
		}},
		{"adaptive", 1, func(ssms []model.Model) treeSpeculator {
			return speculator.NewAdaptive(speculator.AdaptiveConfig{MaxNodes: 16, FanoutCap: 8}, greedy, ssms[0])
		}},
		{"policy", 2, func(ssms []model.Model) treeSpeculator {
			p := newPolicySpeculator(stoch, ssms)
			p.dec = policy.Decision{Budget: policy.Budget{MaxNodes: 12, MaxDepth: 6, FanoutCap: 3}, SSMs: 2}
			return p
		}},
	}
	for _, arch := range []transformer.Arch{transformer.ArchLLaMA, transformer.ArchOPT} {
		for _, workers := range []int{1, 4} {
			for _, quant := range []bool{false, true} {
				ssmModels := make([]*transformer.Model, 2)
				for i := range ssmModels {
					ssmModels[i] = transformer.New(transformer.Config{
						Name: "inc-ssm", Arch: arch, Vocab: 48, Hidden: 16, Heads: 2, FFN: 32,
						Layers: 2, Seed: uint64(60 + i), AttnWorkers: workers,
					})
				}
				variants := func(oracle bool) []model.Model {
					out := make([]model.Model, len(ssmModels))
					for i, m := range ssmModels {
						switch {
						case quant && oracle:
							out[i] = rescoring{m.Quantized()}
						case quant:
							out[i] = m.Quantized()
						case oracle:
							out[i] = m.Reference()
						default:
							out[i] = m
						}
					}
					return out
				}
				for _, g := range growers {
					name := fmt.Sprintf("%s/w%d/quant=%v/%s", arch, workers, quant, g.name)
					t.Run(name, func(t *testing.T) {
						inc := g.mk(variants(false)[:g.nSSM])
						oracle := g.mk(variants(true)[:g.nSSM])
						rng := tensor.NewRNG(313)
						prompt := []model.Token{4, 8, 15, 16, 23, 42}
						inc.Prefill(prompt)
						oracle.Prefill(prompt)
						root := prompt[len(prompt)-1]
						for round := 0; round < 3; round++ {
							got, want := inc.Speculate(root), oracle.Speculate(root)
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
