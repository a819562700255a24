package cluster

import (
	"testing"

	"specinfer/internal/core"
	"specinfer/internal/gpu"
	"specinfer/internal/model"
)

// incIters fabricates n incremental-decoding iterations at batch size b.
func incIters(n, b, ctx int) []core.IterationRecord {
	out := make([]core.IterationRecord, n)
	for i := range out {
		var it core.IterationRecord
		for j := 0; j < b; j++ {
			it.Reqs = append(it.Reqs, core.ReqIter{ID: j, Committed: 1, CtxLen: ctx})
		}
		out[i] = it
	}
	return out
}

// specIters fabricates tree-speculative iterations: each request verifies
// a tree of `nodes` speculated nodes with `leaves` sequences summing to
// pathPos positions, committing `alpha` tokens.
func specIters(n, b, ctx, nodes, leaves, pathPos, alpha, depth int) []core.IterationRecord {
	out := make([]core.IterationRecord, n)
	for i := range out {
		it := core.IterationRecord{SpecSteps: depth}
		for j := 0; j < b; j++ {
			it.Reqs = append(it.Reqs, core.ReqIter{
				ID: j, TreeNodes: nodes, TreeLeaves: leaves, TreePathPositions: pathPos,
				Committed: alpha, CtxLen: ctx,
			})
		}
		out[i] = it
	}
	return out
}

func dep7B() Deployment {
	return Deployment{LLM: model.LLaMA7B, SSM: model.LLaMA68M}
}

func TestSpeculationImprovesPerTokenLatency(t *testing.T) {
	inc := Simulate(dep7B(), incIters(100, 1, 140))
	spec := Simulate(dep7B(), specIters(30, 1, 140, 20, 3, 24, 3, 8))
	if spec.PerTokenLatency >= inc.PerTokenLatency {
		t.Fatalf("speculative per-token %.4f !< incremental %.4f",
			spec.PerTokenLatency, inc.PerTokenLatency)
	}
	speedup := inc.PerTokenLatency / spec.PerTokenLatency
	// Paper Figure 7: 1.5-2.8x for distributed serving.
	if speedup < 1.2 || speedup > 4.0 {
		t.Fatalf("speedup %.2f outside plausible range", speedup)
	}
	t.Logf("LLaMA-7B 1 GPU speedup: %.2fx (inc %.1fms, spec %.1fms)",
		speedup, inc.PerTokenLatency*1e3, spec.PerTokenLatency*1e3)
}

func TestSpeedupShrinksWithBatchSize(t *testing.T) {
	// §6.2: larger batches leave less spare compute for tree verification.
	speedupAt := func(b int) float64 {
		inc := Simulate(dep7B(), incIters(50, b, 140))
		spec := Simulate(dep7B(), specIters(20, b, 140, 20, 3, 24, 3, 8))
		return inc.PerTokenLatency / spec.PerTokenLatency
	}
	s1, s16 := speedupAt(1), speedupAt(16)
	if s16 >= s1 {
		t.Fatalf("speedup must shrink with batch size: BS1=%.2f BS16=%.2f", s1, s16)
	}
}

func TestPerTokenLatencyGrowsWithBatch(t *testing.T) {
	// Figure 7 also shows absolute per-token latency rising with BS.
	l1 := Simulate(dep7B(), incIters(50, 1, 140)).PerTokenLatency
	l16 := Simulate(dep7B(), incIters(50, 16, 140)).PerTokenLatency
	if l16 <= l1 {
		t.Fatalf("per-token latency must grow with batch: %.4f vs %.4f", l1, l16)
	}
}

func TestSequenceDecodeCostsMore(t *testing.T) {
	// Figure 11: sequence-based decoding of the same trees is slower,
	// especially at large batch.
	iters := specIters(20, 16, 140, 20, 3, 24, 3, 8)
	tree := Simulate(dep7B(), iters)
	d := dep7B()
	d.SequenceDecode = true
	seq := Simulate(d, iters)
	if seq.PerTokenLatency <= tree.PerTokenLatency {
		t.Fatalf("sequence decode %.4f must exceed tree decode %.4f",
			seq.PerTokenLatency, tree.PerTokenLatency)
	}
	ratio := seq.PerTokenLatency / tree.PerTokenLatency
	if ratio > 2.5 {
		t.Fatalf("sequence/tree ratio %.2f implausible", ratio)
	}
}

func TestOffloadingRegime(t *testing.T) {
	d := Deployment{LLM: model.OPT13B, SSM: model.OPT125M, Offload: true}
	inc := Simulate(d, incIters(20, 1, 140))
	spec := Simulate(d, specIters(10, 1, 140, 20, 3, 24, 3, 8))
	// FlexGen-style OPT-13B offloading is ~1-2s per token.
	if inc.PerTokenLatency < 0.8 || inc.PerTokenLatency > 3 {
		t.Fatalf("offload incremental per-token %.3fs outside regime", inc.PerTokenLatency)
	}
	speedup := inc.PerTokenLatency / spec.PerTokenLatency
	// Paper Figure 8: 2.6-3.5x.
	if speedup < 1.8 || speedup > 4.5 {
		t.Fatalf("offload speedup %.2f outside plausible range", speedup)
	}
	t.Logf("OPT-13B offload speedup: %.2fx", speedup)
}

func TestMultiGPUDeployments(t *testing.T) {
	// OPT-30B on 4 GPUs must be served faster than hypothetically on 1
	// (where it would not even fit — the model enforces no capacity check,
	// the latency ordering still must hold).
	d4 := Deployment{LLM: model.OPT30B, SSM: model.OPT125M, Plan: gpu.TensorParallel(4)}
	d1 := Deployment{LLM: model.OPT30B, SSM: model.OPT125M}
	l4 := Simulate(d4, incIters(20, 1, 140)).PerTokenLatency
	l1 := Simulate(d1, incIters(20, 1, 140)).PerTokenLatency
	if l4 >= l1 {
		t.Fatalf("TP=4 %.4f must beat TP=1 %.4f", l4, l1)
	}
}

func TestReportAccounting(t *testing.T) {
	rep := Simulate(dep7B(), specIters(10, 2, 100, 20, 3, 24, 3, 8))
	if rep.Iterations != 10 {
		t.Fatalf("iterations = %d", rep.Iterations)
	}
	if rep.TotalTokens != 10*2*3 {
		t.Fatalf("tokens = %d, want 60", rep.TotalTokens)
	}
	if rep.SSMSeconds <= 0 || rep.LLMSeconds <= 0 {
		t.Fatal("phase accounting missing")
	}
	if rep.SSMSeconds+rep.LLMSeconds > rep.TotalSeconds {
		t.Fatal("phases exceed total")
	}
	if rep.IterLatency.N != 10 {
		t.Fatal("iteration latency summary missing")
	}
}

func TestBaselines(t *testing.T) {
	bs := Baselines()
	if len(bs) != 3 {
		t.Fatalf("want 3 baselines, got %d", len(bs))
	}
	rep := Simulate(dep7B(), incIters(10, 1, 100))
	for _, b := range bs {
		scaled := b.Scale(rep)
		if scaled.PerTokenLatency <= 0 {
			t.Fatalf("%s scaled latency invalid", b.Name)
		}
		// All baselines within ~15% of SpecInfer-incremental (§6.2).
		ratio := scaled.PerTokenLatency / rep.PerTokenLatency
		if ratio < 0.85 || ratio > 1.15 {
			t.Fatalf("%s factor %.2f outside on-par band", b.Name, ratio)
		}
	}
}

func TestEmptyIterationsHandled(t *testing.T) {
	rep := Simulate(dep7B(), nil)
	if rep.TotalSeconds != 0 || rep.TotalTokens != 0 {
		t.Fatal("empty run must be zero")
	}
	rep = Simulate(dep7B(), []core.IterationRecord{{}})
	if rep.TotalSeconds != 0 {
		t.Fatal("zero-batch iteration must cost nothing")
	}
}

func TestPerRequestAccounting(t *testing.T) {
	// Fabricate records with request ids: 2 requests, ids 5 and 9.
	iters := make([]core.IterationRecord, 4)
	for i := range iters {
		iters[i] = core.IterationRecord{
			Reqs: []core.ReqIter{
				{ID: 5, TreeNodes: 10, TreeLeaves: 2, TreePathPositions: 12, Committed: 3, CtxLen: 100},
				{ID: 9, TreeNodes: 10, TreeLeaves: 2, TreePathPositions: 12, Committed: 2, CtxLen: 100},
			},
			SpecSteps: 8,
		}
	}
	rep := Simulate(dep7B(), iters)
	if len(rep.PerRequest) != 2 {
		t.Fatalf("want 2 per-request entries, got %d", len(rep.PerRequest))
	}
	r5, r9 := rep.PerRequest[5], rep.PerRequest[9]
	if r5.Tokens != 12 || r9.Tokens != 8 {
		t.Fatalf("token attribution wrong: %+v %+v", r5, r9)
	}
	if r5.Iterations != 4 || r9.Iterations != 4 {
		t.Fatal("iteration attribution wrong")
	}
	// Same wall time attributed; fewer tokens -> worse per-token latency.
	if r9.PerToken() <= r5.PerToken() {
		t.Fatal("slower request must have higher per-token latency")
	}
	if rep.RequestPerToken.N != 2 {
		t.Fatal("request latency summary missing")
	}
	if rep.RequestPerToken.P99 < rep.RequestPerToken.P50 {
		t.Fatal("summary quantiles inconsistent")
	}
}

func TestEnergyAccounting(t *testing.T) {
	inc := Simulate(dep7B(), incIters(40, 1, 140))
	spec := Simulate(dep7B(), specIters(12, 1, 140, 20, 3, 24, 3, 8))
	if inc.EnergyJoules <= 0 || spec.EnergyJoules <= 0 {
		t.Fatal("energy not accounted")
	}
	// §2: speculation reduces energy per generated token (fewer passes
	// over the weights), even after paying for SSM execution.
	if spec.EnergyPerToken >= inc.EnergyPerToken {
		t.Fatalf("energy/token: spec %.3gJ !< incremental %.3gJ",
			spec.EnergyPerToken, inc.EnergyPerToken)
	}
	saving := inc.EnergyPerToken / spec.EnergyPerToken
	if saving < 1.3 || saving > 4 {
		t.Fatalf("energy saving %.2fx outside plausible band", saving)
	}
	t.Logf("energy per token: incremental %.3gJ, tree-spec %.3gJ (%.2fx)",
		inc.EnergyPerToken, spec.EnergyPerToken, saving)
}

func TestPredictShardingCounts(t *testing.T) {
	tr := ShardedTrace{Replicas: 4, Groups: 8, Requests: 32, PrefixLen: 384, SuffixLen: 16}

	aff := PredictSharding(dep7B(), tr, true)
	blind := PredictSharding(dep7B(), tr, false)

	// Affinity: each group lives on exactly one replica, so exactly
	// Groups cold prefills no matter how many requests repeat them.
	if aff.ColdPrefills != 8 || aff.WarmPrefills != 24 {
		t.Fatalf("affinity prefills cold=%d warm=%d, want 8/24", aff.ColdPrefills, aff.WarmPrefills)
	}
	// Hash-blind round-robin with Groups a multiple of Replicas pins
	// each group to a fixed rotation of replicas: every (group, replica)
	// pair that occurs does so once cold. Here gcd alignment makes
	// every request's (i%8, i%4) pair repeat with period 8, so 8 groups
	// x 1 replica each = 8 cold in the first lap, then the second lap
	// revisits... i%8 and i%4 advance together, so pair (g, r) repeats
	// every lcm(8,4)=8 requests: 8 distinct pairs, 8 cold prefills.
	if blind.ColdPrefills != 8 {
		t.Fatalf("blind cold prefills %d, want 8 for aligned groups", blind.ColdPrefills)
	}

	// Misaligned groups (Groups=6, Replicas=4): lcm(6,4)=12 distinct
	// (group, replica) pairs over 24 requests — blind routing scatters
	// each group across 2 replicas and pays double the cold prefills.
	tr2 := ShardedTrace{Replicas: 4, Groups: 6, Requests: 24, PrefixLen: 384, SuffixLen: 16}
	aff2 := PredictSharding(dep7B(), tr2, true)
	blind2 := PredictSharding(dep7B(), tr2, false)
	if aff2.ColdPrefills != 6 {
		t.Fatalf("affinity cold prefills %d, want 6", aff2.ColdPrefills)
	}
	if blind2.ColdPrefills != 12 {
		t.Fatalf("blind cold prefills %d, want 12", blind2.ColdPrefills)
	}
	if aff2.MeanTTFT >= blind2.MeanTTFT {
		t.Fatalf("affinity mean TTFT %.4g !< blind %.4g", aff2.MeanTTFT, blind2.MeanTTFT)
	}
	if aff2.TotalSeconds <= 0 || blind2.TotalSeconds <= 0 {
		t.Fatal("prefill makespan not accounted")
	}

	// A cold prefill must dominate a warm one for the prediction to be
	// about anything: with a 384-token shared prefix and 16-token
	// suffix the ratio should be large.
	one := ShardedTrace{Replicas: 1, Groups: 1, Requests: 2, PrefixLen: 384, SuffixLen: 16}
	p := PredictSharding(dep7B(), one, true)
	if p.ColdPrefills != 1 || p.WarmPrefills != 1 {
		t.Fatalf("single-group prefills cold=%d warm=%d, want 1/1", p.ColdPrefills, p.WarmPrefills)
	}
	t.Logf("sharding sim: aligned aff %.4gs vs blind %.4gs; misaligned aff %.4gs vs blind %.4gs mean TTFT",
		aff.MeanTTFT, blind.MeanTTFT, aff2.MeanTTFT, blind2.MeanTTFT)
}
