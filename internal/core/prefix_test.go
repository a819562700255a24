package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tensor"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// prefixTestModels builds a paged transformer (llm, ssm) pair over the
// workload vocabulary, so SharedPrefixTrace prompts are valid input.
func prefixTestModels(arch transformer.Arch) (model.Model, model.Model) {
	llm := transformer.New(transformer.Config{
		Name: "pfx-llm", Arch: arch, Vocab: 192, Hidden: 32, Heads: 4, FFN: 64,
		Layers: 2, Seed: 21,
	})
	ssm := transformer.New(transformer.Config{
		Name: "pfx-ssm", Arch: arch, Vocab: 192, Hidden: 16, Heads: 2, FFN: 32,
		Layers: 1, Seed: 22,
	})
	return llm, ssm
}

func prefixTrace(n int) []workload.Request {
	mk := workload.NewMarkov(workload.DatasetByName("Alpaca"))
	// 70-token shared prefix spans one full 64-row KV page plus a tail.
	return mk.SharedPrefixTrace(tensor.NewRNG(777), n, 70, 6, 8)
}

// TestPrefixCacheBitExactAcrossConfigs is the prefix cache's golden
// gate: enabling it must not change a single output token — for both
// architectures, greedy and stochastic sampling, and across the grid of
// engine workers x attention workers (GOMAXPROCS, the bound of the
// transformer's attention split). The 90-token shared prefix makes every
// cold LLM prefill cross the split's floor, so at attnworkers=3 those
// stages run on three goroutines. The warm run must also actually hit
// the cache, so the equality is not vacuous.
func TestPrefixCacheBitExactAcrossConfigs(t *testing.T) {
	markov := workload.NewMarkov(workload.DatasetByName("Alpaca"))
	reqs := markov.SharedPrefixTrace(tensor.NewRNG(777), 4, 90, 6, 8)
	for _, arch := range []transformer.Arch{transformer.ArchLLaMA, transformer.ArchOPT} {
		for _, sample := range []sampling.Config{sampling.GreedyConfig(), sampling.StochasticConfig()} {
			for _, workers := range []int{1, 2} {
				for _, attn := range []int{1, 3} {
					name := fmt.Sprintf("%v/%v/workers=%d/attnworkers=%d", arch, sample.Mode, workers, attn)
					t.Run(name, func(t *testing.T) {
						prev := runtime.GOMAXPROCS(attn)
						defer runtime.GOMAXPROCS(prev)
						mk := func(pcBytes int64) Config {
							llm, ssm := prefixTestModels(arch)
							return Config{
								Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
								Shape:  speculator.Shape{Expansion: tree.WidthConfig(2)[:3]},
								Sample: sample, Seed: 17,
								MaxBatch: 2, Workers: workers,
								PrefixCacheBytes: pcBytes,
							}
						}
						coldEng := mustEngine(t, mk(0))
						cold, coldIters := coldEng.Run(reqs)
						warmEng := mustEngine(t, mk(64<<20))
						warm, warmIters := warmEng.Run(reqs)

						if !reflect.DeepEqual(cold, warm) {
							t.Fatal("warm outputs differ from cold prefill")
						}
						st := warmEng.PrefixCacheStats()
						if st.Hits == 0 {
							t.Fatalf("warm run never hit the cache: %+v", st)
						}
						if st.Pinned != 0 {
							t.Fatalf("%d pins leaked after Run", st.Pinned)
						}

						// Iteration records: the warm run must report shared
						// prompt tokens for at least one request, the cold run
						// none; and the token-level records must agree.
						checkSharedToks := func(iters []IterationRecord, wantAny bool) {
							t.Helper()
							total := 0
							for _, rec := range iters {
								for _, r := range rec.Reqs {
									total += r.PrefixSharedToks
								}
							}
							if wantAny && total == 0 {
								t.Fatal("warm iteration records report no shared tokens")
							}
							if !wantAny && total != 0 {
								t.Fatalf("cold iteration records report %d shared tokens", total)
							}
						}
						checkSharedToks(coldIters, false)
						checkSharedToks(warmIters, true)
					})
				}
			}
		}
	}
}

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPrefixCacheWithNonPagedModels: models whose sessions cannot share
// pages (the n-gram substrate) must run unchanged under an enabled
// cache — the engine prefills them cold and records nothing.
func TestPrefixCacheWithNonPagedModels(t *testing.T) {
	llm, ssm, reqs := testModels(t, 4, 16)
	base, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 9, MaxBatch: 2,
	}, reqs)
	e, err := NewEngine(Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 9, MaxBatch: 2,
		PrefixCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cached, _ := e.Run(reqs)
	if !reflect.DeepEqual(base, cached) {
		t.Fatal("enabling the prefix cache changed n-gram outputs")
	}
	st := e.PrefixCacheStats()
	if st.Hits != 0 || st.Misses != 0 || st.Inserts != 0 {
		t.Fatalf("n-gram sessions touched the prefix cache: %+v", st)
	}
}

// TestPrefixCacheRejectsNegativeBudget pins the config validation.
func TestPrefixCacheRejectsNegativeBudget(t *testing.T) {
	llm, _, _ := testModels(t, 1, 1)
	if _, err := NewEngine(Config{
		Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(),
		PrefixCacheBytes: -1,
	}); err == nil {
		t.Fatal("negative PrefixCacheBytes accepted")
	}
}

// prefillCounter wraps a paged transformer and counts the prompt rows
// its sessions run through the forward pass at prefill: the whole prompt
// on a cold Prefill, only the suffix past the adopted prefix on
// PrefillShared.
type prefillCounter struct {
	*transformer.Model
	rows *atomic.Int64
}

func (m prefillCounter) NewSession() model.Session {
	return countingSession{m.Model.NewSession().(*transformer.Session), m.rows}
}

type countingSession struct {
	*transformer.Session
	rows *atomic.Int64
}

func (s countingSession) Prefill(prompt []model.Token) []float32 {
	s.rows.Add(int64(len(prompt)))
	return s.Session.Prefill(prompt)
}

func (s countingSession) PrefillShared(h *kvcache.PinnedPrefix, prompt []model.Token) []float32 {
	s.rows.Add(int64(len(prompt) - h.Len()))
	return s.Session.PrefillShared(h, prompt)
}

// TestPrefixCacheSharedPrefill is the prefix cache's performance gate,
// counted rather than timed: 16 requests share a 512-token prefix and
// add 16 novel tokens each (MaxNewTok 1, so the run is prefill-shaped).
// With the cache on, only the first request prefills the shared prefix;
// the rest adopt its pages and forward their suffixes. Warm must forward
// at most a third of cold's LLM prefill rows; the exact counts (8448
// cold, 768 warm) are pinned so any change to what the cache serves
// shows up here.
func TestPrefixCacheSharedPrefill(t *testing.T) {
	const (
		batch     = 16
		prefixLen = 512
		suffixLen = 16
	)
	rng := tensor.NewRNG(6060)
	prefix := make([]model.Token, prefixLen)
	for i := range prefix {
		prefix[i] = rng.Intn(192)
	}
	reqs := make([]workload.Request, batch)
	for i := range reqs {
		p := append([]model.Token(nil), prefix...)
		for j := 0; j < suffixLen; j++ {
			p = append(p, rng.Intn(192))
		}
		reqs[i] = workload.Request{ID: i, Prompt: p, MaxNewTok: 1}
	}
	llm, ssm := prefixTestModels(transformer.ArchLLaMA)
	prefillRows := func(cacheBytes int64) int64 {
		var rows atomic.Int64
		run(t, Config{
			Mode: TreeSpec, LLM: prefillCounter{llm.(*transformer.Model), &rows},
			SSMs: []model.Model{ssm}, Sample: sampling.GreedyConfig(), Seed: 17,
			MaxBatch: batch, PrefixCacheBytes: cacheBytes,
		}, reqs)
		return rows.Load()
	}
	cold, warm := prefillRows(0), prefillRows(256<<20)
	t.Logf("LLM prefill rows: cold %d, warm %d", cold, warm)
	if warm*3 > cold {
		t.Fatalf("warm prefill forwarded %d rows, more than a third of cold's %d", warm, cold)
	}
	if wantCold, wantWarm := int64(batch*(prefixLen+suffixLen)), int64(prefixLen+batch*suffixLen); cold != wantCold || warm != wantWarm {
		t.Fatalf("prefill rows cold %d warm %d, want %d and %d", cold, warm, wantCold, wantWarm)
	}
}

// TestGuestAdoptsButNeverInserts: a guest request (workload.Request.Guest)
// adopts the prefix its engine's cache already holds, inserts nothing
// through prefill or Close, and decodes exactly what the same request
// does as a host. A guest is no donor either: a request that shares its
// prompt prefills beside it instead of waiting for its pages.
func TestGuestAdoptsButNeverInserts(t *testing.T) {
	reqs := prefixTrace(2)
	engine := func() *Engine {
		llm, ssm := prefixTestModels(transformer.ArchLLaMA)
		return mustEngine(t, Config{
			Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
			Shape:  speculator.Shape{Expansion: tree.WidthConfig(2)[:3]},
			Sample: sampling.GreedyConfig(), Seed: 17,
			MaxBatch: 2, PrefixCacheBytes: 64 << 20,
		})
	}
	guest := reqs[1]
	guest.Guest = true

	hostEng, guestEng := engine(), engine()
	hostEng.Run(reqs[:1])
	guestEng.Run(reqs[:1])
	before := guestEng.PrefixCacheStats()
	asHost, _ := hostEng.Run(reqs[1:])
	asGuest, _ := guestEng.Run([]workload.Request{guest})
	after := guestEng.PrefixCacheStats()

	if after.Hits <= before.Hits || after.TokensShared <= before.TokensShared {
		t.Fatalf("guest did not adopt the cached prefix: %+v -> %+v", before, after)
	}
	if after.Inserts != before.Inserts || after.Bytes != before.Bytes {
		t.Fatalf("guest inserted into the cache: inserts %d -> %d, bytes %d -> %d",
			before.Inserts, after.Inserts, before.Bytes, after.Bytes)
	}
	if host := hostEng.PrefixCacheStats(); host.Inserts <= before.Inserts {
		t.Fatalf("test vacuous: the host request inserted nothing (%d -> %d)", before.Inserts, host.Inserts)
	}
	if after.Pinned != 0 {
		t.Fatalf("%d pins leaked after the guest closed", after.Pinned)
	}
	if !reflect.DeepEqual(asGuest[0].Output, asHost[0].Output) {
		t.Fatalf("guest output %v, host output %v", asGuest[0].Output, asHost[0].Output)
	}

	// On a cold cache a host's second request waits one iteration to
	// adopt the first's pages; behind a guest it prefills at once.
	firstIter := func(first workload.Request) int {
		_, iters := engine().Run([]workload.Request{first, reqs[1]})
		return len(iters[0].Reqs)
	}
	if n := firstIter(reqs[0]); n != 1 {
		t.Fatalf("behind a host the second request stepped in iteration 0 (%d stepped)", n)
	}
	first := reqs[0]
	first.Guest = true
	if n := firstIter(first); n != 2 {
		t.Fatalf("the second request waited on a guest's inserts (%d stepped in iteration 0)", n)
	}
}

// TestGuestWaitsOnlyForItsCachesDonors: a staged request's inserts land
// in its own engine's cache, so a guest looking up in its host's cache
// never sits out a prefill phase for them, where a request of the same
// engine and prompt does.
func TestGuestWaitsOnlyForItsCachesDonors(t *testing.T) {
	reqs := prefixTrace(2)
	llm, ssm := prefixTestModels(transformer.ArchLLaMA)
	eng := mustEngine(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 17,
		MaxBatch: 3, PrefixCacheBytes: 64 << 20,
	})
	host := kvcache.NewPrefixCache(64 << 20) // cold, like eng's own
	donor := eng.admit(reqs[0], eng.prefix)
	donor.lookup()
	guestReq := reqs[1]
	guestReq.Guest = true
	own, guest := eng.admit(reqs[1], eng.prefix), eng.admit(guestReq, host)
	defer func() {
		for _, st := range []*reqState{donor, own, guest} {
			eng.release(st)
		}
	}()
	staged := []*reqState{donor}
	if !waitsForInsert(own, staged) {
		t.Fatal("test vacuous: a host request of the same engine does not wait for the donor")
	}
	if waitsForInsert(guest, staged) {
		t.Fatal("a guest of another cache waits for its engine's donor")
	}
}

// uncomparableModel is a model whose dynamic type == cannot compare.
type uncomparableModel struct {
	model.Model
	tags []string
}

// TestSharesModels: engines share models when they hold the same LLM
// and SSM objects in the same order; equal weights in other objects,
// another SSM order, or a model type == cannot compare do not count,
// and the last must not panic.
func TestSharesModels(t *testing.T) {
	llm, ssm := prefixTestModels(transformer.ArchLLaMA)
	llm2, ssm2 := prefixTestModels(transformer.ArchLLaMA)
	engine := func(llm model.Model, ssms ...model.Model) *Engine {
		return mustEngine(t, Config{
			Mode: TreeSpec, LLM: llm, SSMs: ssms,
			Sample: sampling.GreedyConfig(), PrefixCacheBytes: 1 << 20,
		})
	}
	base := engine(llm, ssm, ssm2)
	odd := uncomparableModel{Model: llm}
	for _, c := range []struct {
		name string
		o    *Engine
		want bool
	}{
		{"same objects", engine(llm, ssm, ssm2), true},
		{"distinct LLM", engine(llm2, ssm, ssm2), false},
		{"SSMs reordered", engine(llm, ssm2, ssm), false},
		{"fewer SSMs", engine(llm, ssm), false},
		{"uncomparable LLM", engine(odd, ssm, ssm2), false},
	} {
		if got := base.sharesModels(c.o); got != c.want {
			t.Errorf("%s: sharesModels = %v, want %v", c.name, got, c.want)
		}
	}
}
