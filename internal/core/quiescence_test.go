package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// poisonLLM wraps a paged transformer so that a session whose prompt
// ends in the poison token panics in its prefill (panicAt 0), after
// pinning a cached prefix but before writing its own rows, or on its
// panicAt-th forward step (Decode or DecodeTree), after its prefill has
// pinned and published prefix-cache pages. It counts open sessions, so
// a leaked LLM session — and the KV pages it holds — shows.
type poisonLLM struct {
	*transformer.Model
	poison  model.Token
	panicAt int
	open    atomic.Int64 // sessions created and not yet closed
}

// poisonPanic is the value a poisoned session panics with.
var poisonPanic = errors.New("poisoned decode")

func (m *poisonLLM) NewSession() model.Session {
	m.open.Add(1)
	return &poisonSession{Session: m.Model.NewSession().(*transformer.Session), m: m}
}

type poisonSession struct {
	*transformer.Session
	m        *poisonLLM
	poisoned bool
	steps    int
	closed   bool
}

func (s *poisonSession) Prefill(p []model.Token) []float32 {
	s.poisoned = p[len(p)-1] == s.m.poison
	s.check()
	return s.Session.Prefill(p)
}

func (s *poisonSession) PrefillShared(h *kvcache.PinnedPrefix, p []model.Token) []float32 {
	s.poisoned = p[len(p)-1] == s.m.poison
	s.check()
	return s.Session.PrefillShared(h, p)
}

func (s *poisonSession) check() {
	if s.poisoned && s.steps == s.m.panicAt {
		panic(poisonPanic)
	}
}

func (s *poisonSession) forward() {
	s.steps++
	s.check()
}

func (s *poisonSession) Decode(tok model.Token) []float32 {
	s.forward()
	return s.Session.Decode(tok)
}

func (s *poisonSession) DecodeTree(t *tree.Tree) [][]float32 {
	s.forward()
	return s.Session.DecodeTree(t)
}

func (s *poisonSession) Close() {
	if !s.closed {
		s.closed = true
		s.m.open.Add(-1)
	}
	s.Session.Close()
}

// TestQuiescentAfterEveryEntryPoint: whichever entry point serves the
// requests, and however they end — completion, a cancel mid-stream, a
// drain timeout, or a panic in a decode or a prefill that unwinds Serve
// with its value unchanged — everything a request
// held returns to zero: prefix-cache pins, the policy's and the shape
// chooser's per-request history, LLM sessions (and with them their KV
// pages), active KV bytes and queued requests; and no goroutine the
// entry point started, the scheduler loop's worker pool included,
// outlives it. Every case adopts a cached prefix, so the pin check is
// not vacuous, and runs two workers, so the pool has workers to stop.
// Every case but one runs the policy; the other serves the static tree,
// priced by the engine's own shape chooser.
func TestQuiescentAfterEveryEntryPoint(t *testing.T) {
	prompt := prefixTrace(1)[0].Prompt[:64] // exactly one KV page
	poison := (prompt[63] + 1) % 192
	a, b := (poison+1)%192, (poison+2)%192 // harmless last tokens
	// ext is prompt plus one token: its first page is cached once a
	// request with the same first page has prefilled.
	ext := func(tok model.Token) []model.Token {
		return append(append([]model.Token(nil), prompt...), tok)
	}
	short := func(id int, tok model.Token) workload.Request {
		return workload.Request{ID: id, Prompt: ext(tok), MaxNewTok: 8}
	}
	// submitLong serves a request to cache the first page, then submits
	// one that outlives what the case does to it and waits for its
	// first tokens.
	submitLong := func(t *testing.T, eng *Engine, ctx context.Context) <-chan Result {
		serveAll(t, eng, []workload.Request{short(1, a)})
		toks, rc, err := eng.Submit(ctx, workload.Request{ID: 2, Prompt: ext(b), MaxNewTok: 5000})
		if err != nil {
			t.Fatal(err)
		}
		awaitTokens(t, toks, 4)
		return rc
	}
	// servePoisoned serves a one-page prompt, then the same prompt plus
	// the poison token, which adopts the cached page and then panics.
	servePoisoned := func(t *testing.T, eng *Engine) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		recovered := make(chan any, 1)
		go func() {
			defer func() { recovered <- recover() }()
			_ = eng.Serve(ctx)
		}()
		waitStats(t, eng, func(st ServeStats) bool { return st.Serving })
		serveAll(t, eng, []workload.Request{{ID: 1, Prompt: prompt, MaxNewTok: 8}})
		if _, _, err := eng.Submit(ctx, workload.Request{ID: 2, Prompt: ext(poison), MaxNewTok: 64}); err != nil {
			t.Fatal(err)
		}
		select {
		case p := <-recovered:
			if p != poisonPanic {
				t.Fatalf("Serve unwound with %v, want the session's panic value", p)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the poisoned request never panicked")
		}
	}
	serveComplete := func(t *testing.T, eng *Engine) {
		cancel, done := startServe(t, eng)
		serveAll(t, eng, []workload.Request{short(1, a), short(2, b)})
		waitStats(t, eng, func(st ServeStats) bool { return st.ActiveRequests == 0 && st.KVBytesActive == 0 })
		waitServeExit(t, cancel, done)
	}
	cases := []struct {
		name         string
		drainTimeout time.Duration
		panicAt      int
		noPolicy     bool
		serve        func(t *testing.T, eng *Engine)
	}{
		{"Run", 0, 0, false, func(t *testing.T, eng *Engine) {
			res, _ := eng.Run([]workload.Request{short(1, a), short(2, b)})
			for _, r := range res {
				if r.Err != nil || len(r.Output) != 8 {
					t.Fatalf("request %d: %d tokens, err %v", r.ID, len(r.Output), r.Err)
				}
			}
		}},
		{"RunOnline", 0, 0, false, func(t *testing.T, eng *Engine) {
			trace := []TimedRequest{{Request: short(1, a)}, {Request: short(2, b), Arrival: 0.01}}
			res, _ := eng.RunOnline(trace, func(IterationRecord) float64 { return 1e-3 })
			for _, r := range res {
				if r.Err != nil || len(r.Output) != 8 {
					t.Fatalf("request %d: %d tokens, err %v", r.ID, len(r.Output), r.Err)
				}
			}
		}},
		{"Serve/complete", 0, 0, false, serveComplete},
		{"Serve/complete without policy", 0, 0, true, serveComplete},
		{"Serve/cancel", 0, 0, false, func(t *testing.T, eng *Engine) {
			cancelServe, done := startServe(t, eng)
			ctx, cancel := context.WithCancel(context.Background())
			rc := submitLong(t, eng, ctx)
			cancel()
			if r := mustResult(t, rc, 10*time.Second); !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("cancelled request: %v", r.Err)
			}
			waitStats(t, eng, func(st ServeStats) bool { return st.ActiveRequests == 0 && st.KVBytesActive == 0 })
			waitServeExit(t, cancelServe, done)
		}},
		{"Serve/drain timeout", time.Nanosecond, 0, false, func(t *testing.T, eng *Engine) {
			cancelServe, done := startServe(t, eng)
			rc := submitLong(t, eng, context.Background())
			cancelServe()
			if r := mustResult(t, rc, 10*time.Second); !errors.Is(r.Err, ErrDrainTimeout) {
				t.Fatalf("drained request: %v", r.Err)
			}
			if err := <-done; err != nil {
				t.Fatalf("Serve returned %v", err)
			}
		}},
		{"Serve/panic", 0, 3, false, servePoisoned},
		{"Serve/prefill panic", 0, 0, false, servePoisoned},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			llm, ssm := prefixTestModels(transformer.ArchLLaMA)
			m := &poisonLLM{Model: llm.(*transformer.Model), poison: poison, panicAt: tc.panicAt}
			cfg := Config{
				Mode: TreeSpec, LLM: m, SSMs: []model.Model{ssm},
				Sample: sampling.GreedyConfig(), Seed: 5, MaxBatch: 2,
				PrefixCacheBytes: 64 << 20, DrainTimeout: tc.drainTimeout,
				Policy: &policy.Config{}, Workers: 2,
			}
			if tc.noPolicy {
				cfg.Policy = nil
			}
			eng := mustEngine(t, cfg)
			tc.serve(t, eng)
			shapes := eng.ServeStats().Shape
			if tc.noPolicy && shapes.Steps == 0 {
				t.Fatal("the shape chooser decided no step")
			}
			if shapes.TrackedRequests != 0 {
				t.Fatalf("%d requests still tracked by the shape chooser", shapes.TrackedRequests)
			}

			if pc := eng.PrefixCacheStats(); pc.Hits == 0 || pc.Pinned != 0 {
				t.Fatalf("prefix cache: %d hits, %d entries still pinned; want hits and no pins", pc.Hits, pc.Pinned)
			}
			if ps, _ := eng.PolicyStats(); ps.TrackedRequests != 0 {
				t.Fatalf("%d requests still tracked by the policy", ps.TrackedRequests)
			}
			if n := m.open.Load(); n != 0 {
				t.Fatalf("%d LLM sessions still open", n)
			}
			if st := eng.ServeStats(); st.KVBytesActive != 0 || eng.QueueLen() != 0 {
				t.Fatalf("%d KV bytes active, %d requests queued after the entry point returned", st.KVBytesActive, eng.QueueLen())
			}
			// The test's own Serve goroutines end just after Serve
			// returns; give them a moment.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the entry point returned, %d before it started", runtime.NumGoroutine(), goroutines)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
