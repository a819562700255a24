package bench

// Performance microbenchmarks for PR 2's batched forward path and
// parallel engine loop. Unlike the table/figure drivers above, these
// measure wall-clock cost of the real transformer substrate — the paper's
// quantity of interest for tree-based verification is ns per verified
// token, so every driver reports ns/token alongside the standard ns/op
// and allocs/op.
//
// Each batched benchmark has a -ref twin that runs the pre-batching
// scalar path (transformer.Model.Reference) or the serial engine loop
// (Workers=1 + reference sessions), so one run of the suite yields the
// old-vs-new speedups directly. The root bench_test.go drivers
// (BenchmarkForward, BenchmarkEngineIteration, BenchmarkVerifier) run
// them with `go test -bench`.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/router"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// PerfBenchmark is one microbenchmark of the perf suite.
type PerfBenchmark struct {
	Name string
	Run  func(b *testing.B)
}

const (
	perfPromptLen = 32
	perfTreeDepth = 8
	perfGenLen    = 16
)

var (
	perfOnce sync.Once
	perfLLM  *transformer.Model
	perfSSM  *transformer.Model
	bwOnce   sync.Once
	bwLLM    *transformer.Model
)

func perfModels() (*transformer.Model, *transformer.Model) {
	perfOnce.Do(func() {
		perfLLM = transformer.New(transformer.Config{
			Name: "perf-LLM", Vocab: 256, Hidden: 64, Heads: 4, FFN: 160,
			Layers: 4, Seed: 61,
		})
		perfSSM = transformer.New(transformer.Config{
			Name: "perf-SSM", Vocab: 256, Hidden: 32, Heads: 4, FFN: 64,
			Layers: 2, Seed: 62,
		})
	})
	return perfLLM, perfSSM
}

// bwModel is the weight-streaming model of the verify-cost curve. It is
// deliberately wider than perf-LLM (hidden 256, FFN 3072, vocab 4096, 2
// wide heads): at this geometry the projection and LM-head matmuls
// dominate a forward pass, the regime the paper's serving workloads live
// in, where weight matrices dwarf any single request's KV footprint.
func bwModel() *transformer.Model {
	bwOnce.Do(func() {
		bwLLM = transformer.New(transformer.Config{
			Name: "perf-LLM-bw", Vocab: 4096, Hidden: 256, Heads: 2, FFN: 3072,
			Layers: 4, Seed: 63,
		})
	})
	return bwLLM
}

func perfPrompt(n int) []model.Token {
	rng := tensor.NewRNG(8080)
	out := make([]model.Token, n)
	for i := range out {
		out[i] = rng.Intn(256)
	}
	return out
}

// perfTree builds a width-w speculation tree: w branches from the root,
// each extended to perfTreeDepth tokens (1 + w*perfTreeDepth nodes),
// mirroring §4.2's expansion-based construction.
func perfTree(w int) *tree.Tree {
	rng := tensor.NewRNG(9090 + uint64(w))
	tr := tree.New(rng.Intn(256))
	for b := 0; b < w; b++ {
		u := tr.Root()
		for d := 0; d < perfTreeDepth; d++ {
			tok := rng.Intn(256)
			if c := tr.ChildWithToken(u, tok); c != -1 {
				u = c
				continue
			}
			u = tr.AddChild(u, tok, 1, 0)
		}
	}
	return tr
}

// perfSession opens a perf-LLM session: the default batched forward
// over the paged KV arena, or the scalar Reference() path over the
// per-position slice cache. The two are bit-identical, so paged-vs-ref
// is a pure speedup.
func perfSession(reference bool) model.Session {
	llm, _ := perfModels()
	if reference {
		return llm.Reference().NewSession()
	}
	return llm.NewSession()
}

func prefillBench(reference bool) func(*testing.B) {
	return func(b *testing.B) {
		llm, _ := perfModels()
		m := model.Model(llm)
		if reference {
			m = llm.Reference()
		}
		prompt := perfPrompt(perfPromptLen)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.NewSession().Prefill(prompt)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perfPromptLen, "ns/token")
	}
}

func decodeBench(reference bool) func(*testing.B) {
	return func(b *testing.B) {
		prompt := perfPrompt(perfPromptLen)
		rng := tensor.NewRNG(7)
		s := perfSession(reference)
		s.Prefill(prompt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Re-prefill periodically so the KV context — and with it the
			// per-decode attention cost — stays bounded as b.N grows.
			if s.Len() >= perfPromptLen+64 {
				b.StopTimer()
				s = perfSession(reference)
				s.Prefill(prompt)
				b.StartTimer()
			}
			s.Decode(rng.Intn(256))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/token")
	}
}

func treeBench(width int, reference bool) func(*testing.B) {
	return func(b *testing.B) {
		s := perfSession(reference)
		s.Prefill(perfPrompt(perfPromptLen))
		tr := perfTree(width)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// DecodeTree without Accept: the cache never grows, so every
			// iteration verifies the same tree at the same context length.
			s.DecodeTree(tr)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/token")
	}
}

// longCtxBench measures decode-shaped work against a large committed
// context — where the KV-cache read pattern dominates and the paged
// head-major layout pays off. The session prefills ctxLen tokens once
// (untimed), then every op verifies the same width-w tree without
// accepting, so the context length is pinned for the whole measurement:
// w=1 is an 8-token chain (incremental-decode shape), larger widths are
// tree verification.
func longCtxBench(ctxLen, width int, reference bool) func(*testing.B) {
	return func(b *testing.B) {
		s := perfSession(reference)
		// Build the committed context the way a served request does: half
		// arrives as the prompt in one prefill, half is generated token by
		// token. Growing the cache one forward at a time is what scatters a
		// per-position slice cache across the heap (a layer's consecutive
		// rows end up ~2KB apart instead of adjacent); the paged arena
		// packs rows identically no matter how they arrived, which is the
		// effect these benchmarks exist to measure.
		s.Prefill(perfPrompt(ctxLen / 2))
		rng := tensor.NewRNG(4321)
		for s.Len() < ctxLen {
			s.Decode(rng.Intn(256))
		}
		tr := perfTree(width)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.DecodeTree(tr)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/token")
	}
}

func engineBench(batch int, serialRef bool) func(*testing.B) {
	return func(b *testing.B) {
		llm, ssm := perfModels()
		var llmM, ssmM model.Model = llm, ssm
		workers := 0
		if serialRef {
			llmM, ssmM = llm.Reference(), ssm.Reference()
			workers = 1
		}
		rng := tensor.NewRNG(5150)
		reqs := make([]workload.Request, batch)
		for i := range reqs {
			p := make([]model.Token, 16)
			for j := range p {
				p[j] = rng.Intn(256)
			}
			reqs[i] = workload.Request{ID: i, Prompt: p, MaxNewTok: perfGenLen}
		}
		cfg := core.Config{
			Mode: core.TreeSpec, LLM: llmM, SSMs: []model.Model{ssmM},
			Sample: sampling.GreedyConfig(), Seed: 17,
			MaxBatch: batch, Workers: workers,
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := core.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			e.Run(reqs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch*perfGenLen), "ns/token")
	}
}

// prefixBench measures time-to-first-token under shared-prefix traffic:
// `batch` requests whose prompts open with the same prefixLen-token
// prefix and diverge into 16-token suffixes, each generating exactly ONE
// token — so an op's cost is dominated by prefill, the TTFT component.
// warm enables the cross-request prefix cache (the engine is rebuilt
// every op, so all sharing happens inside the measured batch: the first
// prefill is cold and seeds the cache, the rest adopt the shared pages
// and compute only their suffixes); cold runs the identical trace with
// the cache disabled. warm-vs-cold is the tentpole speedup.
func prefixBench(batch, prefixLen int, warm bool) func(*testing.B) {
	return func(b *testing.B) {
		llm, ssm := perfModels()
		rng := tensor.NewRNG(6060)
		prefix := make([]model.Token, prefixLen)
		for i := range prefix {
			prefix[i] = rng.Intn(256)
		}
		reqs := make([]workload.Request, batch)
		for i := range reqs {
			p := append([]model.Token(nil), prefix...)
			for j := 0; j < 16; j++ {
				p = append(p, rng.Intn(256))
			}
			reqs[i] = workload.Request{ID: i, Prompt: p, MaxNewTok: 1}
		}
		cfg := core.Config{
			Mode: core.TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
			Sample: sampling.GreedyConfig(), Seed: 17, MaxBatch: batch,
		}
		if warm {
			cfg.PrefixCacheBytes = 256 << 20
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := core.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			e.Run(reqs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/token")
	}
}

// RouterTraceConfig parameterizes one fleet run over a shared-prefix
// trace (TestRouterMeasuredVsSimOrdering runs it under both placement
// policies).
type RouterTraceConfig struct {
	Replicas  int
	Groups    int
	Requests  int
	PrefixLen int
	SuffixLen int
	MaxNew    int
	Policy    router.Policy
}

// routerTraceRequests builds the grouped shared-prefix trace for a
// fleet run. Alpaca's vocabulary (192) fits inside the perf models'
// (256), so the Markov trace drives the transformer substrate directly.
func routerTraceRequests(cfg RouterTraceConfig) []workload.Request {
	m := workload.NewMarkov(workload.DatasetByName("Alpaca"))
	rng := tensor.NewRNG(7070)
	return m.GroupedSharedPrefixTrace(rng, cfg.Requests, cfg.Groups,
		cfg.PrefixLen, cfg.SuffixLen, cfg.MaxNew, 1)
}

// RunRouterTrace serves one shared-prefix trace through a fresh
// Replicas-wide fleet under the given placement policy and blocks until
// every request completes: engines are built per call (per-replica
// prefix caches start cold, so all sharing happens inside the measured
// trace), the fleet is started, the requests are submitted in trace
// order, and the fleet is drained. fail reports a fatal condition
// (b.Fatal / t.Fatal).
func RunRouterTrace(cfg RouterTraceConfig, reqs []workload.Request, fail func(...any)) {
	llm, ssm := perfModels()
	engs := make([]*core.Engine, cfg.Replicas)
	for i := range engs {
		eng, err := core.NewEngine(core.Config{
			Mode: core.TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
			Sample: sampling.GreedyConfig(), Seed: 17,
			MaxBatch: 8, QueueDepth: len(reqs),
			PrefixCacheBytes: 256 << 20,
		})
		if err != nil {
			fail(err)
			return
		}
		engs[i] = eng
	}
	rt, err := router.New(router.Config{Replicas: engs, Policy: cfg.Policy})
	if err != nil {
		fail(err)
		return
	}
	//lint:ignore ctxflow benchmark driver owns the fleet lifecycle; the root context is its drain switch
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rt.Run(ctx) }()
	for spins := 0; rt.FleetStats().Live < cfg.Replicas; spins++ {
		if spins > 50000 {
			fail("fleet never came up")
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	results := make([]<-chan core.Result, 0, len(reqs))
	for _, req := range reqs {
		_, res, err := rt.Submit(ctx, req)
		if err != nil {
			fail(err)
			return
		}
		results = append(results, res)
	}
	for _, res := range results {
		if out := <-res; out.Err != nil {
			fail(out.Err)
			return
		}
	}
	cancel()
	if err := <-done; err != nil {
		fail(err)
	}
}

// PerfSuite returns the full microbenchmark suite: batched vs reference
// forward passes (prefill, decode, tree verification at widths 1–5), the
// long-context sweep (committed context 128/512/1024, paged vs
// reference), the engine iteration loop at batch sizes 1–16 plus the
// serial pre-batching engine baseline at batch 8, the shared-prefix TTFT
// pair (prefix cache warm vs cold), and the verifier accept-length pairs.
func PerfSuite() []PerfBenchmark {
	var out []PerfBenchmark
	add := func(name string, fn func(*testing.B)) {
		out = append(out, PerfBenchmark{Name: name, Run: fn})
	}
	add("forward/prefill32/batched", prefillBench(false))
	add("forward/prefill32/ref", prefillBench(true))
	add("forward/decode/batched", decodeBench(false))
	add("forward/decode/ref", decodeBench(true))
	for w := 1; w <= 5; w++ {
		add(perfTreeName(w, false), treeBench(w, false))
		add(perfTreeName(w, true), treeBench(w, true))
	}
	// Long-context sweep: the paged arena against the reference path's
	// slice cache, where the KV read pattern dominates.
	kinds := []struct {
		name      string
		reference bool
	}{{"paged", false}, {"ref", true}}
	for _, c := range []int{128, 512, 1024} {
		for _, k := range kinds {
			add(fmt.Sprintf("forward/longctx/c%d/decode8/%s", c, k.name), longCtxBench(c, 1, k.reference))
		}
	}
	for _, k := range kinds {
		add("forward/longctx/c1024/tree-w4/"+k.name, longCtxBench(1024, 4, k.reference))
	}
	for _, bs := range []int{1, 4, 8, 16} {
		add(perfEngineName(bs, false), engineBench(bs, false))
	}
	add(perfEngineName(8, true), engineBench(8, true))
	// TTFT under shared-prefix traffic, prefix cache on vs off. The
	// cache's effect is gated by a counted test, TestPrefixCacheSharedPrefill.
	add("engine/prefix/shared512x16/warm", prefixBench(16, 512, true))
	add("engine/prefix/shared512x16/cold", prefixBench(16, 512, false))
	// Mean accepted speculated tokens per verification, traversal vs MSS
	// on identical instances (gated by TestTraversalAcceptLenDominatesMSS).
	out = append(out, AcceptLenSuite()...)
	return out
}

func perfTreeName(w int, reference bool) string {
	s := "forward/tree/w" + string(rune('0'+w)) + "/batched"
	if reference {
		s = "forward/tree/w" + string(rune('0'+w)) + "/ref"
	}
	return s
}

func perfEngineName(bs int, serialRef bool) string {
	names := map[int]string{1: "bs1", 4: "bs4", 8: "bs8", 16: "bs16"}
	if serialRef {
		return "engine/iter/" + names[bs] + "/serial-ref"
	}
	return "engine/iter/" + names[bs] + "/parallel"
}
