package bench

import (
	"specinfer/internal/cluster"
	"specinfer/internal/core"
	"specinfer/internal/gpu"
	"specinfer/internal/model"
	"specinfer/internal/offload"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// BatchSizes are the batch sizes of Figures 7, 8, 10 and 11.
var BatchSizes = []int{1, 2, 4, 8, 16}

// Figure7Deployment describes one model deployment of Figure 7.
type Figure7Deployment struct {
	Label string
	LLM   model.Spec
	SSM   model.Spec
	Plan  gpu.Plan
}

// Figure7Deployments returns the paper's three serving deployments:
// LLaMA-7B on one A10, OPT-30B on four A10s (tensor parallel), and
// LLaMA-65B on eight A10s across two nodes (tensor + pipeline parallel).
func Figure7Deployments() []Figure7Deployment {
	return []Figure7Deployment{
		{Label: "LLaMA-7B (1 GPU, 1 node)", LLM: model.LLaMA7B, SSM: model.LLaMA68M, Plan: gpu.SingleGPU()},
		{Label: "OPT-30B (4 GPUs, 1 node)", LLM: model.OPT30B, SSM: model.OPT125M, Plan: gpu.TensorParallel(4)},
		{Label: "LLaMA-65B (4 GPUs/node, 2 nodes)", LLM: model.LLaMA65B, SSM: model.LLaMA68M, Plan: gpu.TwoNode(4)},
	}
}

// Figure7Point is one bar of Figure 7: a system's per-token latency for a
// deployment and batch size.
type Figure7Point struct {
	Deployment string
	System     string
	BatchSize  int
	PerTokenMS float64
}

// LatencyConfig tunes the latency experiments' workload sizes.
type LatencyConfig struct {
	Dataset  string
	Requests int // requests per batch-size run (defaults to 2x batch)
	GenLen   int
}

func (c LatencyConfig) withDefaults() LatencyConfig {
	if c.Dataset == "" {
		c.Dataset = "Alpaca"
	}
	if c.GenLen == 0 {
		c.GenLen = calib.GenLen
	}
	return c
}

// systems enumerated in Figure 7's legend order. The three third-party
// systems execute incremental decoding (priced with per-system runtime
// factors; §6.2 reports them on par with SpecInfer's incremental mode).
const (
	sysSpecIncr = "SpecInfer (incremental decoding)"
	sysSpecSeq  = "SpecInfer (sequence-based speculation)"
	sysSpecTree = "SpecInfer (tree-based speculation)"
	sysFlexGen  = "FlexGen"
)

// Figure7 reproduces Figure 7: per-token latency of six systems across
// three deployments and five batch sizes.
func Figure7(cfg LatencyConfig) []Figure7Point {
	cfg = cfg.withDefaults()
	p := Models(workload.DatasetByName(cfg.Dataset))
	var out []Figure7Point
	for _, dep := range Figure7Deployments() {
		cdep := cluster.Deployment{LLM: dep.LLM, SSM: dep.SSM, Plan: dep.Plan}
		for _, bs := range BatchSizes {
			nReq := cfg.Requests
			if nReq == 0 {
				nReq = 2 * bs
			}
			// Incremental decoding trace prices the three baselines and
			// SpecInfer's incremental mode.
			_, incIters := runEngine(p, core.Config{
				Mode: core.Incremental, Sample: sampling.StochasticConfig(), MaxBatch: bs,
			}, nReq, bs, cfg.GenLen)
			incRep := cluster.Simulate(cdep, incIters)
			for _, b := range cluster.Baselines() {
				out = append(out, Figure7Point{
					Deployment: dep.Label, System: b.Name, BatchSize: bs,
					PerTokenMS: b.Scale(incRep).PerTokenLatency * 1e3,
				})
			}
			out = append(out, Figure7Point{
				Deployment: dep.Label, System: sysSpecIncr, BatchSize: bs,
				PerTokenMS: incRep.PerTokenLatency * 1e3,
			})

			_, seqIters := runEngine(p, core.Config{
				Mode: core.SequenceSpec, Sample: sampling.StochasticConfig(), MaxBatch: bs,
			}, nReq, bs, cfg.GenLen)
			out = append(out, Figure7Point{
				Deployment: dep.Label, System: sysSpecSeq, BatchSize: bs,
				PerTokenMS: cluster.Simulate(cdep, seqIters).PerTokenLatency * 1e3,
			})

			_, treeIters := runEngine(p, core.Config{
				Mode: core.TreeSpec, Sample: sampling.StochasticConfig(), MaxBatch: bs,
			}, nReq, bs, cfg.GenLen)
			out = append(out, Figure7Point{
				Deployment: dep.Label, System: sysSpecTree, BatchSize: bs,
				PerTokenMS: cluster.Simulate(cdep, treeIters).PerTokenLatency * 1e3,
			})
		}
	}
	return out
}

// Figure8Point is one bar of Figure 8: offloading-based per-token latency.
type Figure8Point struct {
	Model      string
	System     string
	BatchSize  int
	PerTokenS  float64
	SpeedupVsF float64 // SpecInfer rows: speedup vs FlexGen at same config
}

// Figure8 reproduces Figure 8: OPT-13B and OPT-30B served by offloading on
// a single A10, FlexGen (incremental) vs SpecInfer (tree speculation).
func Figure8(cfg LatencyConfig) []Figure8Point {
	cfg = cfg.withDefaults()
	p := Models(workload.DatasetByName(cfg.Dataset))
	var out []Figure8Point
	for _, spec := range []model.Spec{model.OPT13B, model.OPT30B} {
		exec, err := offload.NewExecutor(offload.Config{LLM: spec})
		if err != nil {
			panic("bench: " + err.Error())
		}
		cdep := cluster.Deployment{LLM: spec, SSM: model.OPT125M, Offload: true, Pricer: exec}
		for _, bs := range BatchSizes {
			nReq := cfg.Requests
			if nReq == 0 {
				nReq = 2 * bs
			}
			_, incIters := runEngine(p, core.Config{
				Mode: core.Incremental, Sample: sampling.StochasticConfig(), MaxBatch: bs,
			}, nReq, bs, cfg.GenLen)
			flex := cluster.Simulate(cdep, incIters)
			out = append(out, Figure8Point{
				Model: spec.Name, System: sysFlexGen, BatchSize: bs,
				PerTokenS: flex.PerTokenLatency,
			})

			_, treeIters := runEngine(p, core.Config{
				Mode: core.TreeSpec, Sample: sampling.StochasticConfig(), MaxBatch: bs,
			}, nReq, bs, cfg.GenLen)
			si := cluster.Simulate(cdep, treeIters)
			out = append(out, Figure8Point{
				Model: spec.Name, System: sysSpecTree, BatchSize: bs,
				PerTokenS:  si.PerTokenLatency,
				SpeedupVsF: flex.PerTokenLatency / si.PerTokenLatency,
			})
		}
	}
	return out
}

// Figure10Point is one line point of Figure 10: per-token latency for a
// tree width and batch size (LLaMA-7B + LLaMA-68M deployment).
type Figure10Point struct {
	Width      int
	BatchSize  int
	PerTokenMS float64
}

// Figure10 reproduces Figure 10: end-to-end latency across tree widths
// 1..5 and batch sizes, showing that the optimal width shrinks to 2-3 as
// batch size grows.
func Figure10(cfg LatencyConfig) []Figure10Point {
	cfg = cfg.withDefaults()
	p := Models(workload.DatasetByName(cfg.Dataset))
	cdep := cluster.Deployment{LLM: model.LLaMA7B, SSM: model.LLaMA68M, Plan: gpu.SingleGPU()}
	var out []Figure10Point
	for k := 1; k <= 5; k++ {
		for _, bs := range BatchSizes {
			nReq := cfg.Requests
			if nReq == 0 {
				nReq = 2 * bs
			}
			_, iters := runEngine(p, core.Config{
				Mode:     core.TreeSpec,
				Shape:    speculator.Shape{Expansion: tree.WidthConfig(k)},
				Sample:   sampling.StochasticConfig(),
				MaxBatch: bs,
			}, nReq, bs, cfg.GenLen)
			out = append(out, Figure10Point{
				Width: k, BatchSize: bs,
				PerTokenMS: cluster.Simulate(cdep, iters).PerTokenLatency * 1e3,
			})
		}
	}
	return out
}

// Figure11Point is one pair of bars of Figure 11: tree-based vs
// sequence-based parallel decoding of the same speculated trees.
type Figure11Point struct {
	BatchSize  int
	TreeMS     float64
	SequenceMS float64
	Speedup    float64
}

// Figure11 reproduces Figure 11: identical engine traces priced with the
// fused tree-decoding kernel vs the decomposed sequence-decoding baseline
// (one kernel per candidate sequence, shared prefixes recomputed).
func Figure11(cfg LatencyConfig) []Figure11Point {
	cfg = cfg.withDefaults()
	p := Models(workload.DatasetByName(cfg.Dataset))
	var out []Figure11Point
	for _, bs := range BatchSizes {
		nReq := cfg.Requests
		if nReq == 0 {
			nReq = 2 * bs
		}
		_, iters := runEngine(p, core.Config{
			Mode: core.TreeSpec, Sample: sampling.StochasticConfig(), MaxBatch: bs,
		}, nReq, bs, cfg.GenLen)
		tdep := cluster.Deployment{LLM: model.LLaMA7B, SSM: model.LLaMA68M, Plan: gpu.SingleGPU()}
		sdep := tdep
		sdep.SequenceDecode = true
		tree := cluster.Simulate(tdep, iters).PerTokenLatency * 1e3
		seq := cluster.Simulate(sdep, iters).PerTokenLatency * 1e3
		out = append(out, Figure11Point{
			BatchSize: bs, TreeMS: tree, SequenceMS: seq, Speedup: seq / tree,
		})
	}
	return out
}
