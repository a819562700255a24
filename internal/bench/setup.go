// Package bench is the experiment harness: one driver per table and
// figure of the paper's evaluation (§6), each returning the same rows or
// series the paper reports. cmd/benchtables renders them as text tables
// and bench_test.go exposes them as Go benchmarks.
//
// All drivers share one calibration (calib below): the "LLM" is an
// order-3 n-gram trained on a large synthetic corpus, the "SSM" an
// order-2 n-gram trained on a small subset with extra smoothing — chosen
// once so the pair lands in the paper's Table 1 acceptance regime, then
// held fixed for every experiment. Latency experiments price measured
// token-level traces on the A10 hardware model (see internal/cluster).
package bench

import (
	"sync"

	"specinfer/internal/model"
	"specinfer/internal/ngram"
	"specinfer/internal/tensor"
	"specinfer/internal/transformer"
	"specinfer/internal/workload"
)

// calib is the single, fixed calibration of the model substrate.
type calibration struct {
	LLMOrder      int
	LLMSequences  int
	SSMOrder      int
	SSMSequences  int
	SeqLen        int
	SSMSmoothing  float64
	LLMSmoothing  float64
	BackoffBase   float64
	SSMSharpen    float64
	PromptLen     int
	GenLen        int // tokens generated per request (paper: 128)
	TraceRequests int // requests per trace unless the driver overrides
	Seed          uint64
}

var calib = calibration{
	LLMOrder:      3, // sees (a, b) pairs — full ground-truth context
	LLMSequences:  400,
	SSMOrder:      2, // sees only b — structurally misaligned
	SSMSequences:  150,
	SeqLen:        256,
	SSMSmoothing:  0.02,
	LLMSmoothing:  0.005,
	BackoffBase:   24,
	SSMSharpen:    1.5,
	PromptLen:     16,
	GenLen:        128,
	TraceRequests: 8,
	Seed:          20240427, // the conference's opening day
}

// Pair bundles the models for one dataset.
type Pair struct {
	Dataset workload.Dataset
	Markov  *workload.Markov
	LLM     *ngram.Model
	SSM     *ngram.Model
}

var (
	pairCacheMu sync.Mutex
	pairCache   = map[string]Pair{} // guarded by pairCacheMu
)

// Models builds the calibrated LLM/SSM pair for a dataset. Deterministic —
// the same dataset always yields the same pair — and cached, since
// training the LLM is the most expensive step of harness setup.
func Models(ds workload.Dataset) Pair {
	pairCacheMu.Lock()
	defer pairCacheMu.Unlock()
	if p, ok := pairCache[ds.Name]; ok {
		return p
	}
	p := buildModels(ds)
	pairCache[ds.Name] = p
	return p
}

func buildModels(ds workload.Dataset) Pair {
	mk := workload.NewMarkov(ds)
	rng := tensor.NewRNG(calib.Seed ^ ds.Seed)
	llm := ngram.New(ngram.Config{
		Name: "sim-LLM(" + ds.Name + ")", Vocab: ds.Vocab,
		Order: calib.LLMOrder, Smoothing: calib.LLMSmoothing,
		BackoffBase: calib.BackoffBase,
	})
	ssm := ngram.New(ngram.Config{
		Name: "sim-SSM(" + ds.Name + ")", Vocab: ds.Vocab,
		Order: calib.SSMOrder, Smoothing: calib.SSMSmoothing,
		BackoffBase: calib.BackoffBase, Sharpen: calib.SSMSharpen,
	})
	llm.TrainCorpus(mk.Corpus(rng, calib.LLMSequences, calib.SeqLen))
	ssm.TrainCorpus(mk.Corpus(rng, calib.SSMSequences, calib.SeqLen))
	return Pair{Dataset: ds, Markov: mk, LLM: llm, SSM: ssm}
}

// ExtraSSMs trains n additional diverse SSMs (distinct data subsets) for
// merge-based speculation experiments.
func (p Pair) ExtraSSMs(n int) []*ngram.Model {
	out := make([]*ngram.Model, n)
	for i := range out {
		rng := tensor.NewRNG(calib.Seed ^ p.Dataset.Seed ^ uint64(i+1)*0x5851f42d4c957f2d)
		m := ngram.New(ngram.Config{
			Name: "sim-SSM-extra", Vocab: p.Dataset.Vocab,
			Order: calib.SSMOrder, Smoothing: calib.SSMSmoothing,
			BackoffBase: calib.BackoffBase, Sharpen: calib.SSMSharpen,
		})
		m.TrainCorpus(p.Markov.Corpus(rng, calib.SSMSequences, calib.SeqLen))
		out[i] = m
	}
	return out
}

// Trace samples a request trace for the pair's dataset.
func (p Pair) Trace(n, maxNew int) []workload.Request {
	rng := tensor.NewRNG(calib.Seed*3 + p.Dataset.Seed)
	return p.Markov.Trace(rng, n, calib.PromptLen, maxNew)
}

// SSMModels returns the SSM pool as model.Model values.
func (p Pair) SSMModels() []model.Model { return []model.Model{p.SSM} }

// Datasets returns the benchmark datasets in the paper's order.
func Datasets() []workload.Dataset { return workload.Datasets() }

// TFPair bundles a transformer LLM/SSM pair for a dataset — the CLIs'
// -substrate transformer, which serves on the paged KV arena the n-gram
// models don't have. The nets are small random models on the
// dataset's vocabulary: right-shaped for exercising kernels and serving
// paths, not trained for acceptance quality (the calibrated n-gram pair
// remains the paper-faithful substrate for the experiment tables).
type TFPair struct {
	Dataset workload.Dataset
	Markov  *workload.Markov
	LLM     *transformer.Model
	SSM     *transformer.Model
}

var (
	tfPairCacheMu sync.Mutex
	tfPairCache   = map[string]TFPair{} // guarded by tfPairCacheMu
)

// TransformerPair builds the transformer LLM/SSM pair for a dataset.
// Deterministic and cached, like Models.
func TransformerPair(ds workload.Dataset) TFPair {
	tfPairCacheMu.Lock()
	defer tfPairCacheMu.Unlock()
	if p, ok := tfPairCache[ds.Name]; ok {
		return p
	}
	p := TFPair{
		Dataset: ds,
		Markov:  workload.NewMarkov(ds),
		LLM: transformer.New(transformer.Config{
			Name: "tf-LLM(" + ds.Name + ")", Vocab: ds.Vocab,
			Hidden: 64, Heads: 4, FFN: 160, Layers: 4,
			Seed: calib.Seed ^ ds.Seed,
		}),
		SSM: transformer.New(transformer.Config{
			Name: "tf-SSM(" + ds.Name + ")", Vocab: ds.Vocab,
			Hidden: 32, Heads: 4, FFN: 64, Layers: 2,
			Seed: calib.Seed ^ ds.Seed ^ 0x9e3779b97f4a7c15,
		}),
	}
	tfPairCache[ds.Name] = p
	return p
}

// Trace samples a request trace for the pair's dataset.
func (p TFPair) Trace(n, maxNew int) []workload.Request {
	rng := tensor.NewRNG(calib.Seed*5 + p.Dataset.Seed)
	return p.Markov.Trace(rng, n, calib.PromptLen, maxNew)
}

// SSMModels returns the SSM pool as model.Model values.
func (p TFPair) SSMModels() []model.Model { return []model.Model{p.SSM} }
