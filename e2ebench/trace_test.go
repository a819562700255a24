package main

import (
	"testing"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/transformer"
)

// TestTracingFidelity serves the same shared-prefix greedy requests with
// plain and with traced models. Tracing must change nothing the engine
// can observe: the outputs agree token for token, and the prefix cache
// sees the same hits and misses. A decorator that hides Arena or
// PrefillShared silently turns the cache off, which shows here.
func TestTracingFidelity(t *testing.T) {
	llm := transformer.New(transformer.Config{Name: "t-llm", Vocab: 256, Hidden: 32, Heads: 2, FFN: 64, Layers: 2, Seed: 1})
	ssm := transformer.New(transformer.Config{Name: "t-ssm", Vocab: 256, Hidden: 16, Heads: 2, FFN: 32, Layers: 1, Seed: 2})
	reqs := markov().GroupedSharedPrefixTrace(tensor.NewRNG(3), 12, 3, 130, 8, 12, 1)
	serve := func(l, s model.Model) ([]core.RequestResult, *core.Engine) {
		eng, err := core.NewEngine(core.Config{
			Mode: core.TreeSpec, LLM: l, SSMs: []model.Model{s}, Sample: sampling.GreedyConfig(),
			MaxBatch: 4, Workers: 1, PrefixCacheBytes: 64 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, _ := eng.Run(reqs)
		return res, eng
	}
	plain, plainEng := serve(llm, ssm)
	rec := newRecorder()
	traced, tracedEng := serve(rec.model(llm, "llm"), rec.model(ssm, "ssm"))

	for i := range plain {
		if !equalTokens(plain[i].Output, traced[i].Output) {
			t.Fatalf("request %d: traced output %v, plain %v", i, traced[i].Output, plain[i].Output)
		}
	}
	ps, ts := plainEng.PrefixCacheStats(), tracedEng.PrefixCacheStats()
	if ps.Hits == 0 {
		t.Fatal("the trace shares no prefix; the test would prove nothing")
	}
	if ts.Hits != ps.Hits || ts.Misses != ps.Misses || ts.TokensShared != ps.TokensShared {
		t.Fatalf("prefix cache traced %d hits/%d misses/%d tokens, plain %d/%d/%d",
			ts.Hits, ts.Misses, ts.TokensShared, ps.Hits, ps.Misses, ps.TokensShared)
	}
	if ts.Pinned != 0 {
		t.Fatalf("%d prefix entries still pinned after every request closed", ts.Pinned)
	}

	tot := rec.totals(rec.epoch, time.Now().Add(time.Hour))
	if got := tot["llm"][kPrefillShared].calls; got != int(ps.Hits)/2 {
		t.Errorf("traced %d LLM shared prefills, want %d (half the hits: LLM and SSM namespaces)", got, ps.Hits/2)
	}
	if tot["llm"][kDecodeTree].calls == 0 || tot["ssm"][kDecodeTree].calls == 0 || tot["llm"][kAccept].calls == 0 {
		t.Error("traced run recorded no verify, draft or accept spans")
	}
}
