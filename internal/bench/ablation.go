package bench

import (
	"fmt"

	"specinfer/internal/core"
	"specinfer/internal/metrics"
	"specinfer/internal/model"
	"specinfer/internal/ngram"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// AblationRow is one configuration of the design-choice ablation study.
type AblationRow struct {
	Name   string
	Mode   sampling.Mode
	AvgTok float64 // average tokens verified per LLM step
}

// Ablation exercises the design choices DESIGN.md calls out, all on the
// Alpaca pair with speculation depth 8:
//
//   - expansion position: width-3 at the first speculated token (this
//     repo's default) vs at the third token (the paper's §6.4 text);
//   - expansion mode: SampleK (distribution-exact drafts) vs forced TopK;
//   - speculation shape: single-SSM tree vs merged multi-SSM sequences;
//   - boost-tuned pool vs independently trained pool.
func Ablation(cfg Table2Config) []AblationRow {
	cfg = cfg.withDefaults()
	p := Models(workload.DatasetByName("Alpaca"))
	var rows []AblationRow

	add := func(name string, mode sampling.Mode, engCfg core.Config) {
		engCfg.Sample = sampling.Config{Mode: mode, Temperature: 1}
		res, _ := runEngine(p, engCfg, cfg.Requests, 8, cfg.GenLen)
		var per []float64
		for _, r := range res {
			per = append(per, r.AvgCommitted())
		}
		rows = append(rows, AblationRow{
			Name: name, Mode: mode, AvgTok: metrics.Summarize(per).Mean,
		})
	}

	for _, mode := range []sampling.Mode{sampling.Greedy, sampling.Stochastic} {
		add("width-3 at first token", mode, core.Config{
			Mode: core.TreeSpec, Shape: speculator.Shape{Expansion: tree.WidthConfig(3)},
		})
		add("width-3 at third token (paper cfg)", mode, core.Config{
			Mode: core.TreeSpec, Shape: speculator.Shape{Expansion: tree.ThirdTokenConfig(3)},
		})
		add("sequence (width 1)", mode, core.Config{
			Mode: core.SequenceSpec,
		})
	}
	// Stochastic-only: draft selection policy.
	add("SampleK drafts (exact)", sampling.Stochastic, core.Config{
		Mode: core.TreeSpec, Shape: speculator.Shape{Expansion: tree.WidthConfig(3)},
	})
	add("TopK drafts (approximate)", sampling.Stochastic, core.Config{
		Mode: core.TreeSpec, Shape: speculator.Shape{Expansion: tree.WidthConfig(3)}, ForceTopK: true,
	})
	// Adaptive (future-work) expansion vs static, at an equal node budget
	// of 10 speculated nodes.
	staticBudget := tree.WidthConfig(3) // ⟨3,1,1,1,1,1,1,1⟩ = 10 nodes
	for _, mode := range []sampling.Mode{sampling.Greedy, sampling.Stochastic} {
		add("static 10-node tree", mode, core.Config{
			Mode: core.TreeSpec, Shape: speculator.Shape{Expansion: staticBudget},
		})
		add("adaptive 10-node tree (future work)", mode, core.Config{
			Mode:  core.TreeSpec,
			Shape: speculator.Shape{Budget: tree.Budget{MaxNodes: staticBudget.MaxNodes(), MaxDepth: 8}},
		})
	}
	// Merge-based: 1 vs 3 SSMs proposing sequences.
	extra := p.ExtraSSMs(2)
	add("merge: 1 SSM sequences", sampling.Greedy, core.Config{
		Mode: core.TreeSpec, Shape: speculator.Shape{Expansion: tree.SequenceConfig(8)},
		SSMs: []model.Model{p.SSM},
	})
	add("merge: 3 SSM sequences", sampling.Greedy, core.Config{
		Mode: core.TreeSpec, Shape: speculator.Shape{Expansion: tree.SequenceConfig(8)},
		SSMs: []model.Model{p.SSM, extra[0], extra[1]},
	})
	return rows
}

// BoostAblationRow reports boost-tuning pool coverage.
type BoostAblationRow struct {
	PoolSize int
	Covered  []int // cumulative samples covered after each SSM
	Total    int
}

// BoostAblation runs collective boost-tuning for growing pool sizes and
// compares against independently trained pools, reporting sample
// coverage — the quantity §3's boosting loop maximizes.
func BoostAblation(samples int) BoostAblationRow {
	if samples == 0 {
		samples = 120
	}
	p := Models(workload.DatasetByName("Alpaca"))
	rng := tensor.NewRNG(calib.Seed + 17)
	prompts := p.Markov.Prompts(rng, samples, 12)
	pool := make([]speculator.Trainable, 3)
	for i := range pool {
		pool[i] = ngram.New(ngram.Config{
			Name:  fmt.Sprintf("boost-%d", i),
			Vocab: p.Dataset.Vocab, Order: calib.SSMOrder,
			Smoothing: calib.SSMSmoothing, BackoffBase: calib.BackoffBase,
			Sharpen: calib.SSMSharpen,
		})
	}
	covered := speculator.BoostTune(p.LLM, pool, prompts, speculator.BoostConfig{Seed: 3})
	return BoostAblationRow{PoolSize: len(pool), Covered: covered, Total: samples}
}
