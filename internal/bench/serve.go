package bench

import (
	"fmt"

	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// ServeFlags are the serving options the specinfer and specinferd
// command lines share, as parsed from their flags.
type ServeFlags struct {
	Dataset       string
	Substrate     string // "ngram" (the calibrated pair) or "transformer"
	Mode          string // incremental|sequence|tree
	Width         int    // token tree width (tree mode)
	Depth         int    // speculation depth
	SSMs          int    // SSM pool size; > 1 merges several n-gram SSMs
	Stochastic    bool
	Temperature   float64
	TopK          int
	TopP          float64
	Verifier      string
	Adaptive      bool
	Policy        bool
	Batch         int
	Workers       int
	Seed          uint64
	PrefixCacheMB int64
}

// Serving is a resolved serving setup: the dataset, the engine
// configuration, and the substrate's request-trace sampler.
type Serving struct {
	Dataset workload.Dataset
	Config  core.Config
	Trace   func(n, maxNew int) []workload.Request
}

// NewServing resolves command-line serving options into an engine
// configuration over the chosen substrate. Flag values no engine can
// serve are reported as errors; the remaining checks are
// core.NewEngine's.
func NewServing(f ServeFlags) (Serving, error) {
	ds, err := workload.LookupDataset(f.Dataset)
	if err != nil {
		return Serving{}, err
	}
	if f.Depth < 1 {
		return Serving{}, fmt.Errorf("-depth must be at least 1, got %d", f.Depth)
	}
	if f.SSMs < 1 {
		return Serving{}, fmt.Errorf("-ssms must be at least 1, got %d", f.SSMs)
	}
	sv := Serving{Dataset: ds}
	var llm, ssm model.Model
	var extras []model.Model
	switch f.Substrate {
	case "ngram":
		pair := Models(ds)
		llm, ssm, sv.Trace = pair.LLM, pair.SSM, pair.Trace
		if f.Mode == "tree" {
			for _, m := range pair.ExtraSSMs(f.SSMs - 1) {
				extras = append(extras, m)
			}
		}
	case "transformer":
		if f.SSMs > 1 {
			return Serving{}, fmt.Errorf("-ssms > 1 requires the ngram substrate")
		}
		tf := TransformerPair(ds)
		llm, ssm, sv.Trace = tf.LLM, tf.SSM, tf.Trace
	default:
		return Serving{}, fmt.Errorf("unknown substrate %q (want ngram or transformer)", f.Substrate)
	}

	cfg := core.Config{
		LLM:              llm,
		Verifier:         f.Verifier,
		MaxBatch:         f.Batch,
		Seed:             f.Seed,
		Workers:          f.Workers,
		PrefixCacheBytes: f.PrefixCacheMB << 20,
		Sample:           sampling.GreedyConfig(),
	}
	if f.Stochastic {
		cfg.Sample = sampling.Config{
			Mode:        sampling.Stochastic,
			Temperature: f.Temperature,
			TopK:        f.TopK,
			TopP:        f.TopP,
		}
	}
	switch f.Mode {
	case "incremental":
		cfg.Mode = core.Incremental
	case "sequence":
		cfg.Mode = core.SequenceSpec
		cfg.SSMs = []model.Model{ssm}
		cfg.Shape.Expansion = tree.SequenceConfig(f.Depth)
	case "tree":
		cfg.Mode = core.TreeSpec
		cfg.SSMs = append([]model.Model{ssm}, extras...)
		if !f.Policy && !f.Adaptive {
			// The rule supplies the policy's ceiling; -adaptive's is
			// the best-first budget below.
			cfg.Shape.Expansion = tree.SequenceConfig(f.Depth)
			cfg.Shape.Expansion[0] = f.Width
		}
	default:
		return Serving{}, fmt.Errorf("unknown mode %q", f.Mode)
	}
	// A budget or a policy under a mode that cannot take it is the
	// engine's to reject.
	if f.Adaptive {
		cfg.Shape = speculator.Shape{Budget: tree.Budget{MaxNodes: f.Width * 3, MaxDepth: f.Depth}}
	}
	if f.Policy {
		cfg.Policy = &policy.Config{}
	}
	sv.Config = cfg
	return sv, nil
}
