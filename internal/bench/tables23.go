package bench

import (
	"specinfer/internal/core"
	"specinfer/internal/metrics"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// runEngine executes one engine configuration over a trace of the pair's
// dataset and returns the results and iteration records.
func runEngine(p Pair, cfg core.Config, nReq, maxBatch, genLen int) ([]core.RequestResult, []core.IterationRecord) {
	cfg.LLM = p.LLM
	if cfg.Mode != core.Incremental && len(cfg.SSMs) == 0 {
		cfg.SSMs = p.SSMModels()
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = maxBatch
	}
	if cfg.Seed == 0 {
		cfg.Seed = calib.Seed
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return eng.Run(p.Trace(nReq, genLen))
}

// Table2Row is one row of Table 2: average tokens verified per decoding
// step for a dataset and decode mode, across token tree widths 1..5
// (expansion config ⟨1,1,k,1,1,1,1,1⟩, speculation length 8).
type Table2Row struct {
	Mode    sampling.Mode
	Dataset string
	// Avg[k-1] is the average number of tokens verified per step with
	// tree width k.
	Avg [5]float64
}

// Table2Config tunes the measurement size.
type Table2Config struct {
	Requests int
	GenLen   int
	// Datasets restricts the sweep; nil means all benchmark datasets.
	Datasets []workload.Dataset
}

func (c Table2Config) withDefaults() Table2Config {
	if c.Requests == 0 {
		c.Requests = 8
	}
	if c.GenLen == 0 {
		c.GenLen = calib.GenLen
	}
	if len(c.Datasets) == 0 {
		c.Datasets = Datasets()
	}
	return c
}

// Table2 reproduces Table 2 by running the tree-speculative engine per
// dataset, mode and width and averaging verified tokens per step.
func Table2(cfg Table2Config) []Table2Row {
	cfg = cfg.withDefaults()
	var rows []Table2Row
	for _, mode := range []sampling.Mode{sampling.Greedy, sampling.Stochastic} {
		for _, ds := range cfg.Datasets {
			p := Models(ds)
			row := Table2Row{Mode: mode, Dataset: ds.Name}
			for k := 1; k <= 5; k++ {
				row.Avg[k-1] = avgVerified(p, mode, tree.WidthConfig(k), cfg.Requests, cfg.GenLen, false)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// avgVerified runs the engine and returns mean committed tokens per step.
func avgVerified(p Pair, mode sampling.Mode, exp tree.ExpansionConfig, nReq, genLen int, naive bool) float64 {
	cfg := core.Config{
		Mode:   core.TreeSpec,
		Shape:  speculator.Shape{Expansion: exp},
		Sample: sampling.Config{Mode: mode, Temperature: 1},
	}
	if naive {
		cfg.Verifier = core.VerifierNaive
	}
	res, _ := runEngine(p, cfg, nReq, 8, genLen)
	var per []float64
	for _, r := range res {
		per = append(per, r.AvgCommitted())
	}
	return metrics.Summarize(per).Mean
}

// Table3Row is one row of Table 3: naive sampling vs multi-step
// speculative sampling under stochastic decoding, tree width 5, depth 8.
type Table3Row struct {
	Dataset     string
	Naive       float64
	MSS         float64
	Improvement float64
}

// Table3 reproduces Table 3.
func Table3(cfg Table2Config) []Table3Row {
	cfg = cfg.withDefaults()
	var rows []Table3Row
	for _, ds := range cfg.Datasets {
		p := Models(ds)
		naive := avgVerified(p, sampling.Stochastic, tree.WidthConfig(5), cfg.Requests, cfg.GenLen, true)
		mss := avgVerified(p, sampling.Stochastic, tree.WidthConfig(5), cfg.Requests, cfg.GenLen, false)
		rows = append(rows, Table3Row{
			Dataset: ds.Name, Naive: naive, MSS: mss, Improvement: mss / naive,
		})
	}
	return rows
}

// Figure9Series is one CDF series of Figure 9: the distribution over
// requests of average verified tokens per decoding step, for one tree
// width and decode mode.
type Figure9Series struct {
	Mode  sampling.Mode
	Width int
	CDF   []metrics.CDFPoint
	Mean  float64
}

// Figure9Config tunes the measurement.
type Figure9Config struct {
	Dataset  string // defaults to Alpaca (the paper uses Alpaca prompts)
	Requests int
	GenLen   int
}

func (c Figure9Config) withDefaults() Figure9Config {
	if c.Dataset == "" {
		c.Dataset = "Alpaca"
	}
	if c.Requests == 0 {
		c.Requests = 24
	}
	if c.GenLen == 0 {
		c.GenLen = calib.GenLen
	}
	return c
}

// Figure9 reproduces Figure 9: per-request average verified tokens per
// step, as a CDF across prompts, for tree widths 1..5, greedy and
// stochastic decoding.
func Figure9(cfg Figure9Config) []Figure9Series {
	cfg = cfg.withDefaults()
	p := Models(workload.DatasetByName(cfg.Dataset))
	var out []Figure9Series
	for _, mode := range []sampling.Mode{sampling.Greedy, sampling.Stochastic} {
		for k := 1; k <= 5; k++ {
			res, _ := runEngine(p, core.Config{
				Mode:   core.TreeSpec,
				Shape:  speculator.Shape{Expansion: tree.WidthConfig(k)},
				Sample: sampling.Config{Mode: mode, Temperature: 1},
			}, cfg.Requests, 8, cfg.GenLen)
			var per []float64
			for _, r := range res {
				per = append(per, r.AvgCommitted())
			}
			out = append(out, Figure9Series{
				Mode:  mode,
				Width: k,
				CDF:   metrics.CDF(per),
				Mean:  metrics.Summarize(per).Mean,
			})
		}
	}
	return out
}
