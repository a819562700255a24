package core

import (
	"fmt"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/workload"
)

// TestBestFirstDraftsPreserveFirstTokenLaw: the best-first grower picks
// drafts deterministically, so a lossless stochastic verifier must emit
// the first token with exactly the LLM's probabilities however the SSM
// ranks them. Each request is prompted identically and commits one
// token; the empirical first-token law over many requests (independent
// RNG streams) is held to the LLM's by a chi-square test with a 1e-4
// false-positive budget and a total-variation bound, for the adaptive
// and policy paths under both verifiers the policy path allows. With the
// SSM's ranking distribution recorded as the proposal instead of the
// point mass the draft was drawn from, the emitted law was 0.2–0.35 away
// from the LLM's in total variation.
func TestBestFirstDraftsPreserveFirstTokenLaw(t *testing.T) {
	p := []float32{0.1, 0.2, 0.3, 0.4}
	// Context-free models (fixedSSM serves as the LLM too) pin down
	// exactly what a lossless verifier must emit.
	llm := &fixedSSM{vocab: len(p), dist: p}
	ssm := &fixedSSM{vocab: len(p), dist: []float32{0.5, 0.3, 0.15, 0.05}}
	const n = 6000
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, Prompt: []int{1, 2}, MaxNewTok: 1}
	}
	paths := map[string]func(*Config){
		"adaptive": func(c *Config) {
			c.Adaptive = &speculator.AdaptiveConfig{MaxNodes: 4, MaxDepth: 2, FanoutCap: 2}
		},
		"policy": func(c *Config) { c.Policy = &policy.Config{} },
	}
	for pname, setPath := range paths {
		for _, verifier := range []string{VerifierMSS, VerifierTraversal} {
			t.Run(fmt.Sprintf("%s/%s", pname, verifier), func(t *testing.T) {
				cfg := Config{
					Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
					Sample: sampling.StochasticConfig(), Verifier: verifier, Seed: 99,
				}
				setPath(&cfg)
				res, _ := run(t, cfg, reqs)
				counts := make([]float64, len(p))
				for _, r := range res {
					if r.Err != nil || len(r.Output) != 1 {
						t.Fatalf("request %d: output %v, err %v", r.ID, r.Output, r.Err)
					}
					counts[r.Output[0]]++
				}
				var chi2, tv float64
				for tok, pt := range p {
					want := n * float64(pt)
					d := counts[tok] - want
					chi2 += d * d / want
					if d < 0 {
						d = -d
					}
					tv += d / (2 * n)
				}
				// Chi-square critical value, 3 degrees of freedom, 1e-4.
				const crit = 21.11
				t.Logf("counts %v chi2 %.2f tv %.4f", counts, chi2, tv)
				if chi2 > crit || tv > 0.03 {
					t.Fatalf("first-token law differs from the LLM's %v: counts %v, chi2 %.1f (crit %.1f), TV %.3f",
						p, counts, chi2, crit, tv)
				}
			})
		}
	}
}
