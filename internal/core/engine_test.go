package core

import (
	"testing"
	"testing/quick"

	"specinfer/internal/model"
	"specinfer/internal/ngram"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tensor"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// testModels builds an aligned (llm, ssm) n-gram pair plus a trace.
func testModels(t *testing.T, numReq, maxNew int) (model.Model, model.Model, []workload.Request) {
	t.Helper()
	mk := workload.NewMarkov(workload.DatasetByName("Alpaca"))
	rng := tensor.NewRNG(1234)
	llm := ngram.New(ngram.Config{Name: "llm", Vocab: 192, Order: 3})
	ssm := ngram.New(ngram.Config{Name: "ssm", Vocab: 192, Order: 2, Smoothing: 0.05})
	llm.TrainCorpus(mk.Corpus(rng, 200, 256))
	ssm.TrainCorpus(mk.Corpus(rng, 20, 256))
	return llm, ssm, mk.Trace(rng, numReq, 12, maxNew)
}

func run(t *testing.T, cfg Config, reqs []workload.Request) ([]RequestResult, []IterationRecord) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(reqs)
}

// TestGreedyLossless is the paper's headline correctness claim: tree-based
// speculative inference with greedy verification generates the EXACT same
// token sequence as incremental decoding, for every request.
func TestGreedyLossless(t *testing.T) {
	llm, ssm, reqs := testModels(t, 6, 48)
	inc, _ := run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 7}, reqs)
	spec, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 7,
	}, reqs)
	seqb, _ := run(t, Config{
		Mode: SequenceSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 7,
	}, reqs)

	for i := range reqs {
		if len(inc[i].Output) != len(spec[i].Output) {
			t.Fatalf("req %d: lengths differ: %d vs %d", i, len(inc[i].Output), len(spec[i].Output))
		}
		for j := range inc[i].Output {
			if inc[i].Output[j] != spec[i].Output[j] {
				t.Fatalf("req %d token %d: tree-spec diverged from incremental", i, j)
			}
			if inc[i].Output[j] != seqb[i].Output[j] {
				t.Fatalf("req %d token %d: sequence-spec diverged from incremental", i, j)
			}
		}
	}
}

// TestSpeculationReducesSteps: tree speculation must finish requests in
// fewer LLM steps than incremental decoding, and at least match
// sequence-based speculation on average.
func TestSpeculationReducesSteps(t *testing.T) {
	llm, ssm, reqs := testModels(t, 6, 64)
	inc, _ := run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 3}, reqs)
	seq, _ := run(t, Config{Mode: SequenceSpec, LLM: llm, SSMs: []model.Model{ssm}, Sample: sampling.GreedyConfig(), Seed: 3}, reqs)
	tre, _ := run(t, Config{Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm}, Sample: sampling.GreedyConfig(), Seed: 3}, reqs)

	var incSteps, seqSteps, treSteps int
	for i := range reqs {
		incSteps += inc[i].Steps
		seqSteps += seq[i].Steps
		treSteps += tre[i].Steps
	}
	if treSteps >= incSteps {
		t.Fatalf("tree steps %d !< incremental steps %d", treSteps, incSteps)
	}
	if treSteps > seqSteps {
		t.Fatalf("tree steps %d > sequence steps %d", treSteps, seqSteps)
	}
	t.Logf("steps: incremental=%d sequence=%d tree=%d", incSteps, seqSteps, treSteps)
}

func TestOutputsRespectBudget(t *testing.T) {
	llm, ssm, reqs := testModels(t, 5, 37)
	for _, mode := range []Mode{Incremental, SequenceSpec, TreeSpec} {
		res, _ := run(t, Config{
			Mode: mode, LLM: llm, SSMs: []model.Model{ssm},
			Sample: sampling.StochasticConfig(), Seed: 11,
		}, reqs)
		for i, r := range res {
			if len(r.Output) != 37 {
				t.Fatalf("mode %v req %d output len %d, want 37", mode, i, len(r.Output))
			}
			if r.ID != i {
				t.Fatalf("results out of order: %d at %d", r.ID, i)
			}
		}
	}
}

func TestContinuousBatching(t *testing.T) {
	llm, ssm, reqs := testModels(t, 10, 24)
	res, iters := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), MaxBatch: 3, Seed: 5,
	}, reqs)
	for i, r := range res {
		if len(r.Output) != 24 {
			t.Fatalf("req %d incomplete: %d tokens", i, len(r.Output))
		}
	}
	sawFull := false
	for _, it := range iters {
		if it.BatchSize > 3 {
			t.Fatalf("batch size %d exceeds MaxBatch 3", it.BatchSize)
		}
		if it.BatchSize == 3 {
			sawFull = true
		}
		if len(it.TreeNodes) != it.BatchSize || len(it.Committed) != it.BatchSize {
			t.Fatal("iteration record lengths inconsistent")
		}
	}
	if !sawFull {
		t.Fatal("batch never filled — continuous batching not engaging")
	}
}

func TestBatchIndependencePerRequest(t *testing.T) {
	// Per-request RNG streams: the same request must produce the same
	// output whether served alone or inside a batch.
	llm, ssm, reqs := testModels(t, 4, 32)
	batched, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.StochasticConfig(), MaxBatch: 4, Seed: 21,
	}, reqs)
	solo, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.StochasticConfig(), MaxBatch: 1, Seed: 21,
	}, reqs[2:3])
	for j, tok := range solo[0].Output {
		if batched[2].Output[j] != tok {
			t.Fatal("request output depends on batch interleaving")
		}
	}
}

func TestEOSStopsGeneration(t *testing.T) {
	// An LLM that deterministically emits token 7 will hit EOS=7 at once.
	llm, ssm, reqs := testModels(t, 2, 64)
	res, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 9,
	}, reqs[:1])
	// Find a token that actually appears, then re-run with it as EOS.
	eos := res[0].Output[5]
	res2, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 9, EOS: eos,
	}, reqs[:1])
	out := res2[0].Output
	if out[len(out)-1] != eos {
		t.Fatalf("output must end at EOS, got %v", out)
	}
	if len(out) > 64 {
		t.Fatal("EOS output exceeds budget")
	}
	for _, tok := range out[:len(out)-1] {
		if tok == eos {
			t.Fatal("EOS appears before the end")
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	llm, ssm, reqs := testModels(t, 3, 40)
	res, iters := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 13,
	}, reqs)
	for _, r := range res {
		if r.Steps != len(r.CommittedPerStep) || r.Steps != len(r.TreeNodesPerStep) {
			t.Fatal("per-step stats length mismatch")
		}
		total := 0
		for _, c := range r.CommittedPerStep {
			if c < 1 {
				t.Fatal("every step must commit at least one token")
			}
			total += c
		}
		if total != len(r.Output) {
			t.Fatalf("committed sum %d != output len %d", total, len(r.Output))
		}
		if r.AvgCommitted() <= 1 {
			t.Fatalf("tree speculation avg committed %v not > 1", r.AvgCommitted())
		}
	}
	var iterCommitted int
	for _, it := range iters {
		for _, c := range it.Committed {
			iterCommitted += c
		}
	}
	if iterCommitted != 3*40 {
		t.Fatalf("iteration records account for %d tokens, want 120", iterCommitted)
	}
}

func TestMergeBasedMultiSSMEngine(t *testing.T) {
	llm, ssm, reqs := testModels(t, 3, 32)
	mk := workload.NewMarkov(workload.DatasetByName("Alpaca"))
	ssm2 := ngram.New(ngram.Config{Name: "ssm2", Vocab: 192, Order: 2, Smoothing: 0.05})
	ssm2.TrainCorpus(mk.Corpus(tensor.NewRNG(777), 20, 256))

	one, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Expansion: tree.SequenceConfig(8),
		Sample:    sampling.GreedyConfig(), Seed: 17,
	}, reqs)
	two, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm, ssm2},
		Expansion: tree.SequenceConfig(8),
		Sample:    sampling.GreedyConfig(), Seed: 17,
	}, reqs)
	// Lossless in both cases...
	for i := range reqs {
		for j := range one[i].Output {
			if one[i].Output[j] != two[i].Output[j] {
				t.Fatal("multi-SSM merge changed greedy output")
			}
		}
	}
	// ...and the pool must not do worse on steps.
	var s1, s2 int
	for i := range reqs {
		s1 += one[i].Steps
		s2 += two[i].Steps
	}
	if s2 > s1 {
		t.Fatalf("two-SSM merge took more steps (%d) than one SSM (%d)", s2, s1)
	}
}

// TestTransformerBackedEngine runs the whole engine on the real pure-Go
// transformer substrate (LLM = larger net, SSM = smaller net): greedy
// losslessness must hold end-to-end on genuine attention computation.
func TestTransformerBackedEngine(t *testing.T) {
	llm := transformer.New(transformer.Config{
		Name: "tf-llm", Vocab: 64, Hidden: 32, Heads: 4, FFN: 64, Layers: 2, Seed: 1,
	})
	ssm := transformer.New(transformer.Config{
		Name: "tf-ssm", Vocab: 64, Hidden: 16, Heads: 2, FFN: 32, Layers: 1, Seed: 2,
	})
	reqs := []workload.Request{
		{ID: 0, Prompt: []int{1, 2, 3, 4, 5}, MaxNewTok: 16},
		{ID: 1, Prompt: []int{9, 8, 7}, MaxNewTok: 16},
	}
	inc, _ := run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 1}, reqs)
	spec, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Expansion: tree.WidthConfig(3)[:4], // short config to keep it fast
		Sample:    sampling.GreedyConfig(), Seed: 1,
	}, reqs)
	for i := range reqs {
		for j := range inc[i].Output {
			if inc[i].Output[j] != spec[i].Output[j] {
				t.Fatalf("req %d diverged at %d: %v vs %v",
					i, j, inc[i].Output, spec[i].Output)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	llm, ssm, _ := testModels(t, 1, 1)
	if _, err := NewEngine(Config{Mode: TreeSpec, LLM: llm}); err == nil {
		t.Fatal("missing SSMs must fail")
	}
	if _, err := NewEngine(Config{Mode: Incremental}); err == nil {
		t.Fatal("missing LLM must fail")
	}
	bad := ngram.New(ngram.Config{Name: "bad", Vocab: 7, Order: 1})
	if _, err := NewEngine(Config{Mode: TreeSpec, LLM: llm, SSMs: []model.Model{bad}}); err == nil {
		t.Fatal("vocab mismatch must fail")
	}
	if _, err := NewEngine(Config{Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.Config{Temperature: -2}}); err == nil {
		t.Fatal("bad sampling config must fail")
	}
	if _, err := NewEngine(Config{Mode: Incremental, LLM: llm}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if Incremental.String() != "incremental" || SequenceSpec.String() != "sequence-spec" || TreeSpec.String() != "tree-spec" {
		t.Fatal("mode strings wrong")
	}
}

// TestAdaptiveSpeculationLossless: dynamic tree expansion must preserve
// greedy losslessness and reduce steps like static expansion does.
func TestAdaptiveSpeculationLossless(t *testing.T) {
	llm, ssm, reqs := testModels(t, 4, 40)
	inc, _ := run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 31}, reqs)
	ada, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Adaptive: &speculator.AdaptiveConfig{MaxNodes: 10, MaxDepth: 8},
		Sample:   sampling.GreedyConfig(), Seed: 31,
	}, reqs)
	var incSteps, adaSteps int
	for i := range reqs {
		incSteps += inc[i].Steps
		adaSteps += ada[i].Steps
		for j := range inc[i].Output {
			if inc[i].Output[j] != ada[i].Output[j] {
				t.Fatalf("req %d diverged at %d under adaptive speculation", i, j)
			}
		}
	}
	if adaSteps >= incSteps {
		t.Fatalf("adaptive steps %d !< incremental %d", adaSteps, incSteps)
	}
}

func TestAdaptiveStochasticRuns(t *testing.T) {
	llm, ssm, reqs := testModels(t, 2, 32)
	res, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Adaptive: &speculator.AdaptiveConfig{MaxNodes: 10},
		Sample:   sampling.StochasticConfig(), Seed: 32,
	}, reqs)
	for _, r := range res {
		if len(r.Output) != 32 {
			t.Fatalf("adaptive stochastic incomplete: %d tokens", len(r.Output))
		}
		if r.AvgCommitted() <= 1 {
			t.Fatalf("adaptive stochastic unproductive: %.2f tokens/step", r.AvgCommitted())
		}
	}
}

// flatPricer prices every iteration at a constant duration, keeping
// online-serving tests independent of the hardware model.
func flatPricer(d float64) IterationPricer {
	return func(IterationRecord) float64 { return d }
}

func timedTrace(reqs []workload.Request, arrivals []float64) []TimedRequest {
	out := make([]TimedRequest, len(reqs))
	for i := range reqs {
		out[i] = TimedRequest{Request: reqs[i], Arrival: arrivals[i]}
	}
	return out
}

func TestRunOnlineQueueing(t *testing.T) {
	llm, ssm, reqs := testModels(t, 6, 16)
	_ = ssm
	// All requests arrive at t=0; 2 slots; constant 1s iterations.
	arr := make([]float64, len(reqs))
	e, err := NewEngine(Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), MaxBatch: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, iters := e.RunOnline(timedTrace(reqs, arr), flatPricer(1))
	if len(iters) == 0 {
		t.Fatal("no iterations recorded")
	}
	// 16 tokens at 1 token/iter: first two requests finish at t=16; the
	// rest queue.
	for i, r := range res {
		if len(r.Output) != 16 {
			t.Fatalf("req %d incomplete", i)
		}
		if r.Finish <= r.Start || r.Start < r.Arrival {
			t.Fatalf("req %d timing inconsistent: %+v", i, r)
		}
	}
	if res[0].Start != 0 || res[2].Start < 16 {
		t.Fatalf("queueing not respected: start[0]=%v start[2]=%v",
			res[0].Start, res[2].Start)
	}
	if res[2].QueueDelay() <= 0 {
		t.Fatal("queued request must report queue delay")
	}
}

func TestRunOnlineRespectsArrivals(t *testing.T) {
	llm, _, reqs := testModels(t, 3, 8)
	arr := []float64{0, 100, 200}
	e, _ := NewEngine(Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), MaxBatch: 4, Seed: 3})
	res, _ := e.RunOnline(timedTrace(reqs, arr), flatPricer(1))
	for i := range res {
		if res[i].Start < arr[i] {
			t.Fatalf("req %d started before its arrival", i)
		}
	}
	// With 8 tokens at 1s each and 100s gaps, requests never overlap:
	// the engine must idle-skip to each arrival.
	if res[1].Start != 100 || res[2].Start != 200 {
		t.Fatalf("idle skipping broken: %v %v", res[1].Start, res[2].Start)
	}
}

func TestRunOnlineSpeculationDrainsFaster(t *testing.T) {
	llm, ssm, reqs := testModels(t, 6, 32)
	arr := make([]float64, len(reqs))
	mk := func(mode Mode) float64 {
		e, err := NewEngine(Config{
			Mode: mode, LLM: llm, SSMs: []model.Model{ssm},
			Sample: sampling.GreedyConfig(), MaxBatch: 2, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, _ := e.RunOnline(timedTrace(reqs, arr), flatPricer(1))
		var last float64
		for _, r := range res {
			if r.Finish > last {
				last = r.Finish
			}
		}
		return last
	}
	inc := mk(Incremental)
	spec := mk(TreeSpec)
	if spec >= inc {
		t.Fatalf("tree speculation makespan %v !< incremental %v", spec, inc)
	}
}

func TestPoissonArrivals(t *testing.T) {
	rng := tensor.NewRNG(9)
	arr := PoissonArrivals(rng, 1000, 2.0)
	if len(arr) != 1000 {
		t.Fatal("wrong count")
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrivals must be sorted")
		}
	}
	// Mean inter-arrival should be ~0.5s at rate 2.
	mean := arr[len(arr)-1] / float64(len(arr))
	if mean < 0.4 || mean > 0.6 {
		t.Fatalf("mean inter-arrival %v, want ~0.5", mean)
	}
}

// TestDistilledTransformerSSM is the full neural-substrate story: a small
// transformer distilled from the transformer LLM speculates for it, and
// acceptance improves dramatically over a random-weight SSM of identical
// geometry — while greedy losslessness holds throughout.
func TestDistilledTransformerSSM(t *testing.T) {
	llm := transformer.New(transformer.Config{
		Name: "tf-llm", Vocab: 48, Hidden: 32, Heads: 4, FFN: 64, Layers: 2, Seed: 1,
	})
	ssmCfg := transformer.Config{
		Name: "tf-ssm", Vocab: 48, Hidden: 16, Heads: 2, FFN: 32, Layers: 1, Seed: 2,
	}
	random := transformer.New(ssmCfg)
	distilled := transformer.New(ssmCfg)
	rng := tensor.NewRNG(4)
	transformer.Distill(transformer.NewTrainer(distilled, 3e-3), llm, func() []model.Token {
		p := make([]model.Token, 4)
		for i := range p {
			p[i] = rng.Intn(48)
		}
		return p
	}, 8, 350, 5)

	reqs := []workload.Request{
		{ID: 0, Prompt: []int{1, 2, 3, 4}, MaxNewTok: 20},
		{ID: 1, Prompt: []int{9, 8, 7, 6}, MaxNewTok: 20},
	}
	serve := func(ssm model.Model) ([]RequestResult, float64) {
		res, _ := run(t, Config{
			Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
			Expansion: tree.ExpansionConfig{2, 1, 1, 1},
			Sample:    sampling.GreedyConfig(), Seed: 1,
		}, reqs)
		var toks, steps int
		for _, r := range res {
			toks += len(r.Output)
			steps += r.Steps
		}
		return res, float64(toks) / float64(steps)
	}
	inc, _ := run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 1}, reqs)
	resRand, avgRand := serve(random)
	resDist, avgDist := serve(distilled)
	for i := range reqs {
		for j := range inc[i].Output {
			if inc[i].Output[j] != resRand[i].Output[j] || inc[i].Output[j] != resDist[i].Output[j] {
				t.Fatalf("losslessness violated at req %d tok %d", i, j)
			}
		}
	}
	t.Logf("avg tokens/step: random SSM %.2f, distilled SSM %.2f", avgRand, avgDist)
	if avgDist < avgRand*1.3 {
		t.Fatalf("distilled SSM (%.2f) should clearly beat random (%.2f)", avgDist, avgRand)
	}
}

// TestBoostTuneNeuralPool: §3's collective boost-tuning over transformer
// SSMs (not just n-grams) — coverage must be monotone and positive.
func TestBoostTuneNeuralPool(t *testing.T) {
	llm := transformer.New(transformer.Config{
		Name: "boost-llm", Vocab: 32, Hidden: 24, Heads: 2, FFN: 48, Layers: 2, Seed: 21,
	})
	pool := make([]speculator.Trainable, 2)
	for i := range pool {
		pool[i] = transformer.New(transformer.Config{
			Name: "boost-ssm", Vocab: 32, Hidden: 16, Heads: 2, FFN: 32, Layers: 1,
			Seed: uint64(30 + i),
		}).Trainable(3e-3)
	}
	rng := tensor.NewRNG(22)
	prompts := make([][]model.Token, 30)
	for i := range prompts {
		p := make([]model.Token, 4)
		for j := range p {
			p[j] = rng.Intn(32)
		}
		prompts[i] = p
	}
	covered := speculator.BoostTune(llm, pool, prompts, speculator.BoostConfig{
		ContTokens: 6, MatchTokens: 1, Seed: 23,
	})
	if len(covered) != 2 || covered[1] < covered[0] {
		t.Fatalf("coverage not monotone: %v", covered)
	}
	if covered[0] == 0 {
		t.Fatalf("neural boost-tuning covered nothing: %v", covered)
	}
	t.Logf("neural boost coverage: %v of %d", covered, len(prompts))
}

// TestEngineInvariantsProperty fuzzes engine configurations and asserts
// the structural invariants that every serving run must satisfy.
func TestEngineInvariantsProperty(t *testing.T) {
	llm, ssm, _ := testModels(t, 1, 1)
	mk := workload.NewMarkov(workload.DatasetByName("Alpaca"))
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		mode := Mode(rng.Intn(3))
		width := 1 + rng.Intn(4)
		maxNew := 4 + rng.Intn(28)
		nReq := 1 + rng.Intn(4)
		batch := 1 + rng.Intn(3)
		policy := sampling.GreedyConfig()
		if rng.Intn(2) == 0 {
			policy = sampling.Config{Mode: sampling.Stochastic, Temperature: 0.5 + rng.Float64()}
		}
		exp := make(tree.ExpansionConfig, 4+rng.Intn(5))
		for i := range exp {
			exp[i] = 1
		}
		exp[rng.Intn(len(exp))] = width

		eng, err := NewEngine(Config{
			Mode: mode, LLM: llm, SSMs: []model.Model{ssm},
			Expansion: exp, Sample: policy, MaxBatch: batch, Seed: seed,
		})
		if err != nil {
			return false
		}
		reqs := mk.Trace(rng, nReq, 8, maxNew)
		results, iters := eng.Run(reqs)
		if len(results) != nReq {
			return false
		}
		totalIterCommitted := 0
		for _, it := range iters {
			if it.BatchSize > batch || it.BatchSize < 1 {
				return false
			}
			for i, c := range it.Committed {
				if c < 1 {
					return false
				}
				totalIterCommitted += c
				if mode != Incremental && it.TreeNodes[i] < 1 {
					return false
				}
			}
		}
		totalOut := 0
		for _, r := range results {
			if len(r.Output) != maxNew || r.Steps < 1 || r.Steps > maxNew {
				return false
			}
			sum := 0
			for _, c := range r.CommittedPerStep {
				sum += c
			}
			if sum != maxNew {
				return false
			}
			totalOut += len(r.Output)
		}
		return totalIterCommitted == totalOut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// constModel deterministically emits one token forever: a minimal
// substrate for EOS-semantics tests.
type constModel struct {
	vocab int
	tok   model.Token
}

func (m constModel) Name() string              { return "const" }
func (m constModel) VocabSize() int            { return m.vocab }
func (m constModel) NewSession() model.Session { return &constSession{m: m} }

type constSession struct {
	m constModel
	n int
}

func (s *constSession) dist() []float32 {
	d := make([]float32, s.m.vocab)
	d[s.m.tok] = 1
	return d
}
func (s *constSession) Prefill(p []model.Token) []float32 { s.n = len(p); return s.dist() }
func (s *constSession) Decode(model.Token) []float32      { s.n++; return s.dist() }
func (s *constSession) DecodeTree(t *tree.Tree) [][]float32 {
	out := make([][]float32, t.Len())
	for i := range out {
		out[i] = s.dist()
	}
	return out
}
func (s *constSession) Accept(toks []model.Token) []float32 { s.n += len(toks); return s.dist() }
func (s *constSession) Len() int                            { return s.n }

// TestZeroTokenEOS: real tokenizers commonly place special tokens at id
// 0; UseZeroEOS must make token 0 terminate generation, while the zero
// Config value and the explicit NoEOS sentinel both keep EOS disabled.
func TestZeroTokenEOS(t *testing.T) {
	llm := constModel{vocab: 8, tok: 0}
	reqs := []workload.Request{{ID: 0, Prompt: []int{3, 2}, MaxNewTok: 16}}

	stops, _ := run(t, Config{
		Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 1,
		UseZeroEOS: true,
	}, reqs)
	if len(stops[0].Output) != 1 || stops[0].Output[0] != 0 {
		t.Fatalf("token-0 EOS must stop after one token, got %v", stops[0].Output)
	}

	for _, cfg := range []Config{
		{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 1},             // unset
		{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 1, EOS: NoEOS}, // explicit
	} {
		res, _ := run(t, cfg, reqs)
		if len(res[0].Output) != 16 {
			t.Fatalf("EOS disabled (EOS=%d) must run to budget, got %d tokens", cfg.EOS, len(res[0].Output))
		}
	}

	if _, err := NewEngine(Config{
		Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(),
		UseZeroEOS: true, EOS: 5,
	}); err == nil {
		t.Fatal("conflicting UseZeroEOS + positive EOS must be rejected")
	}
}

// TestZeroTokenEOSTreeSpec: the same semantics must hold on the
// speculative path, where EOS is enforced by truncate().
func TestZeroTokenEOSTreeSpec(t *testing.T) {
	llm := constModel{vocab: 8, tok: 0}
	ssm := constModel{vocab: 8, tok: 0}
	reqs := []workload.Request{{ID: 0, Prompt: []int{3, 2}, MaxNewTok: 16}}
	res, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 1, UseZeroEOS: true,
	}, reqs)
	out := res[0].Output
	if len(out) == 0 || out[len(out)-1] != 0 {
		t.Fatalf("tree-spec output must end at token-0 EOS, got %v", out)
	}
	for _, tok := range out[:len(out)-1] {
		if tok == 0 {
			t.Fatal("EOS token appears before the end")
		}
	}
}

// TestVerifierSelection: Config.Verifier wiring — the MSS default and
// rejection of unknown selections.
func TestVerifierSelection(t *testing.T) {
	llm, ssm, _ := testModels(t, 1, 1)
	base := func() Config {
		return Config{Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm}, Sample: sampling.StochasticConfig()}
	}

	e, err := NewEngine(base())
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Verifier != VerifierMSS {
		t.Fatalf("default verifier %q, want %q", e.cfg.Verifier, VerifierMSS)
	}

	cfg := base()
	cfg.Verifier = "banzai"
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("unknown verifier must fail validation")
	}

	for _, v := range []string{VerifierMSS, VerifierNaive, VerifierTraversal} {
		cfg = base()
		cfg.Verifier = v
		if _, err := NewEngine(cfg); err != nil {
			t.Fatalf("verifier %q rejected: %v", v, err)
		}
	}
}

// TestTraversalVerifierEndToEnd: the traversal verifier must run clean
// through the engine under a stochastic policy — full budgets, no
// verification errors, and per-iteration accept lengths recorded.
// Incremental mode must record none.
func TestTraversalVerifierEndToEnd(t *testing.T) {
	llm, ssm, reqs := testModels(t, 5, 32)
	res, iters := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.StochasticConfig(), Verifier: VerifierTraversal, Seed: 17,
	}, reqs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("req %d failed: %v", i, r.Err)
		}
		if len(r.Output) != 32 {
			t.Fatalf("req %d output len %d, want 32", i, len(r.Output))
		}
	}
	total := 0
	for _, it := range iters {
		if len(it.SpecAccepted) != it.BatchSize {
			t.Fatalf("SpecAccepted len %d != batch size %d", len(it.SpecAccepted), it.BatchSize)
		}
		for _, a := range it.SpecAccepted {
			if a < 0 {
				t.Fatalf("negative accept length %d without a verification error", a)
			}
			total += a
		}
	}
	if total == 0 {
		t.Fatal("traversal verifier never accepted a speculated token")
	}

	_, incIters := run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.StochasticConfig(), Seed: 17}, reqs)
	for _, it := range incIters {
		if it.SpecAccepted != nil {
			t.Fatal("incremental iterations must not record accept lengths")
		}
	}
}
