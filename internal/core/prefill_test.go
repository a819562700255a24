package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/transformer"
	"specinfer/internal/workload"
)

// rendezvousModel is a constant model whose Prefill waits at a
// two-party rendezvous, up to wait, and records the peak number of
// prefills in flight at once. Two prefills meet only if they run
// concurrently.
type rendezvousModel struct {
	constModel
	wait time.Duration

	mu       sync.Mutex
	inFlight int           // guarded by mu
	peak     int           // guarded by mu
	arrived  int           // guarded by mu
	met      chan struct{} // closed when the second party arrives
}

func newRendezvousModel(wait time.Duration) *rendezvousModel {
	return &rendezvousModel{constModel: constModel{vocab: 8, tok: 3}, wait: wait, met: make(chan struct{})}
}

func (m *rendezvousModel) NewSession() model.Session {
	return &rendezvousSession{constSession: constSession{m: m.constModel}, rm: m}
}

func (m *rendezvousModel) stats() (peak int, met bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case <-m.met:
		met = true
	default:
	}
	return m.peak, met
}

type rendezvousSession struct {
	constSession
	rm *rendezvousModel
}

func (s *rendezvousSession) Prefill(p []model.Token) []float32 {
	m := s.rm
	m.mu.Lock()
	m.inFlight++
	m.peak = max(m.peak, m.inFlight)
	m.arrived++
	if m.arrived == 2 {
		close(m.met)
	}
	m.mu.Unlock()
	select {
	case <-m.met:
	case <-time.After(m.wait):
	}
	m.mu.Lock()
	m.inFlight--
	m.mu.Unlock()
	return s.constSession.Prefill(p)
}

// TestPrefillPhaseOverlaps: two requests admitted in one pass prefill
// concurrently on a two-worker pool — their prefills meet at the
// rendezvous — and one at a time with a single worker. Nothing is
// timed: the wait only bounds how long the serial case blocks.
func TestPrefillPhaseOverlaps(t *testing.T) {
	reqs := []workload.Request{
		{ID: 0, Prompt: []model.Token{1, 2}, MaxNewTok: 2},
		{ID: 1, Prompt: []model.Token{2, 1}, MaxNewTok: 2},
	}
	for _, tc := range []struct {
		workers int
		wait    time.Duration
	}{{2, time.Minute}, {1, 20 * time.Millisecond}} {
		llm := newRendezvousModel(tc.wait)
		run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), MaxBatch: 2, Workers: tc.workers}, reqs)
		peak, met := llm.stats()
		switch {
		case tc.workers == 2 && (!met || peak != 2):
			t.Fatalf("Workers 2: peak %d concurrent prefills, rendezvous met %v; want 2 and true", peak, met)
		case tc.workers == 1 && peak != 1:
			t.Fatalf("Workers 1: peak %d concurrent prefills, want 1", peak)
		}
	}
}

// TestPrefixCacheDeterministicUnderEviction serves same-prefix bursts
// interleaved with unrelated prompts through a prefix cache too small
// to hold them, so lookups, inserts and evictions interleave with
// concurrent prefills. Outputs, every iteration record (including
// PrefixSharedToks) and the cache's counters must not depend on the
// worker count.
func TestPrefixCacheDeterministicUnderEviction(t *testing.T) {
	mk := workload.NewMarkov(workload.DatasetByName("Alpaca"))
	rng := tensor.NewRNG(4242)
	// Grouped prompts span two full 64-row pages plus a tail; unrelated
	// ones one page plus a tail.
	grouped := mk.GroupedSharedPrefixTrace(rng, 12, 3, 140, 6, 6, 1)
	unrelated := mk.Trace(rng, 6, 80, 6)
	var reqs []workload.Request
	for i := range grouped {
		reqs = append(reqs, grouped[i])
		if i%2 == 1 {
			reqs = append(reqs, unrelated[i/2])
		}
	}
	for i := range reqs {
		reqs[i].ID = i
	}
	type outcome struct {
		results []RequestResult
		iters   []IterationRecord
		stats   kvcache.PrefixStats
	}
	serve := func(workers int) outcome {
		llm, ssm := prefixTestModels(transformer.ArchLLaMA, 1)
		eng := mustEngine(t, Config{
			Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
			Sample: sampling.StochasticConfig(), Seed: 5, Policy: &policy.Config{},
			MaxBatch: 6, Workers: workers, PrefixCacheBytes: 320 << 10,
		})
		res, iters := eng.Run(reqs)
		return outcome{res, iters, eng.PrefixCacheStats()}
	}
	want := serve(1)
	if st := want.stats; st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("cache never both hit and evicted (%+v): the test exercises nothing", st)
	}
	shared := 0
	for _, rec := range want.iters {
		for _, r := range rec.Reqs {
			shared += r.PrefixSharedToks
		}
	}
	if shared == 0 {
		t.Fatal("no iteration record reports shared prompt tokens")
	}
	for _, workers := range []int{2, 4, 2, 4} {
		got := serve(workers)
		if !reflect.DeepEqual(got.results, want.results) {
			t.Fatalf("Workers %d: outputs differ from Workers 1", workers)
		}
		if !reflect.DeepEqual(got.iters, want.iters) {
			for i := range got.iters {
				if i >= len(want.iters) || !reflect.DeepEqual(got.iters[i], want.iters[i]) {
					t.Fatalf("Workers %d: iteration %d differs from Workers 1:\n%+v\n%+v", workers, i, got.iters[i], want.iters[min(i, len(want.iters)-1)])
				}
			}
			t.Fatalf("Workers %d: %d iterations, Workers 1 ran %d", workers, len(got.iters), len(want.iters))
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Fatalf("Workers %d: prefix cache stats %+v, Workers 1 %+v", workers, got.stats, want.stats)
		}
	}
}

// TestSameBurstFollowerAdoptsNextIteration: of two requests admitted in
// one pass with the same two-page prefix, the second waits one
// iteration for the first's insert and then adopts both pages.
func TestSameBurstFollowerAdoptsNextIteration(t *testing.T) {
	reqs := workload.NewMarkov(workload.DatasetByName("Alpaca")).SharedPrefixTrace(tensor.NewRNG(9), 2, 128, 5, 3)
	llm, ssm := prefixTestModels(transformer.ArchOPT, 1)
	eng := mustEngine(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), MaxBatch: 2, Workers: 2, PrefixCacheBytes: 64 << 20,
	})
	_, iters := eng.Run(reqs)
	if first := iters[0].Reqs; len(first) != 1 || first[0].ID != 0 || first[0].PrefixSharedToks != 0 {
		t.Fatalf("first iteration rows %+v, want the leader alone, cold", first)
	}
	rows := iters[1].Reqs
	if last := rows[len(rows)-1]; last.ID != 1 || last.PrefixSharedToks != 128 {
		t.Fatalf("second iteration's last row %+v, want the follower (ID 1) adopting both pages (128 tokens)", last)
	}
}

// clockedModel advances a manual clock by prefill per Prefill call and
// by decode per Decode call, so serving times are exact.
type clockedModel struct {
	constModel
	clk             *manualClock
	prefill, decode time.Duration
}

func (m clockedModel) NewSession() model.Session {
	return &clockedSession{constSession: constSession{m: m.constModel}, cm: m}
}

type clockedSession struct {
	constSession
	cm clockedModel
}

func (s *clockedSession) Prefill(p []model.Token) []float32 {
	s.cm.clk.advance(s.cm.prefill)
	return s.constSession.Prefill(p)
}

func (s *clockedSession) Decode(tok model.Token) []float32 {
	s.cm.clk.advance(s.cm.decode)
	return s.constSession.Decode(tok)
}

// TestServeRecordsTTFT: time to first token runs from Submit to the
// first streamed token — the prefill phase plus the first step — both
// for a request that streams before it finishes and for one whose only
// token is sent when it retires.
func TestServeRecordsTTFT(t *testing.T) {
	clk := &manualClock{t: time.Unix(1000, 0)}
	llm := clockedModel{constModel: constModel{vocab: 8, tok: 3}, clk: clk, prefill: 5 * time.Millisecond, decode: time.Millisecond}
	eng := mustEngine(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Workers: 1, Clock: clk.now})
	cancel, done := startServe(t, eng)
	for i, maxNew := range []int{3, 1} {
		_, res, err := eng.Submit(context.Background(), workload.Request{ID: i, Prompt: []model.Token{1, 2}, MaxNewTok: maxNew})
		if err != nil {
			t.Fatal(err)
		}
		if r := mustResult(t, res, 5*time.Second); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := eng.ServeStats()
	want := (6 * time.Millisecond).Seconds() // 5 ms prefill + 1 ms first decode
	if st.TTFT.N != 2 || math.Abs(st.TTFT.Min-want) > 1e-12 || math.Abs(st.TTFT.Max-want) > 1e-12 {
		t.Fatalf("TTFT summary %+v, want 2 samples of %v s", st.TTFT, want)
	}
	if len(st.TTFTSamples.Values) != 2 {
		t.Fatalf("TTFT snapshot holds %d samples, want 2", len(st.TTFTSamples.Values))
	}
	waitServeExit(t, cancel, done)
}

// cancellingModel cancels a request's context from inside NewSession —
// that is, during its admission — and counts prefills.
type cancellingModel struct {
	constModel
	cancel   context.CancelFunc
	mu       sync.Mutex
	prefills int // guarded by mu
}

func (m *cancellingModel) NewSession() model.Session {
	m.cancel()
	return &admitCancelSession{constSession: constSession{m: m.constModel}, cm: m}
}

type admitCancelSession struct {
	constSession
	cm *cancellingModel
}

func (s *admitCancelSession) Prefill(p []model.Token) []float32 {
	s.cm.mu.Lock()
	s.cm.prefills++
	s.cm.mu.Unlock()
	return s.constSession.Prefill(p)
}

// TestServeSweepsAdmittedRequestBeforePrefill: a request cancelled in
// the pass that admitted it is retired by the sweep before the prefill
// phase pays for its forward pass.
func TestServeSweepsAdmittedRequestBeforePrefill(t *testing.T) {
	ctx, cancelReq := context.WithCancel(context.Background())
	llm := &cancellingModel{constModel: constModel{vocab: 8, tok: 3}, cancel: cancelReq}
	eng := mustEngine(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig()})
	cancel, done := startServe(t, eng)
	_, res, err := eng.Submit(ctx, workload.Request{ID: 1, Prompt: []model.Token{1, 2}, MaxNewTok: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r := mustResult(t, res, 5*time.Second); r.Err != context.Canceled || len(r.Output) != 0 {
		t.Fatalf("result err %v with %d tokens, want context.Canceled and none", r.Err, len(r.Output))
	}
	waitServeExit(t, cancel, done)
	llm.mu.Lock()
	defer llm.mu.Unlock()
	if llm.prefills != 0 {
		t.Fatalf("%d prefills ran for a request cancelled at admission, want 0", llm.prefills)
	}
}
