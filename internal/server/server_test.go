package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/tree"
)

// stubModel deterministically emits token (prompt-last+1) mod vocab with
// a configurable per-step delay, plus open-session accounting so the
// tests can observe KV release through the HTTP layer.
type stubModel struct {
	vocab int
	delay time.Duration

	mu   sync.Mutex
	open int
}

func (m *stubModel) Name() string   { return "stub" }
func (m *stubModel) VocabSize() int { return m.vocab }
func (m *stubModel) NewSession() model.Session {
	m.mu.Lock()
	m.open++
	m.mu.Unlock()
	return &stubSession{m: m}
}

func (m *stubModel) openSessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.open
}

type stubSession struct {
	m      *stubModel
	n      int
	last   model.Token
	closed bool
}

func (s *stubSession) dist() []float32 {
	d := make([]float32, s.m.vocab)
	d[(s.last+1)%s.m.vocab] = 1
	return d
}

func (s *stubSession) Prefill(p []model.Token) []float32 {
	s.n = len(p)
	s.last = p[len(p)-1]
	return s.dist()
}

func (s *stubSession) Decode(t model.Token) []float32 {
	time.Sleep(s.m.delay)
	s.n++
	s.last = t
	return s.dist()
}

func (s *stubSession) DecodeTree(t *tree.Tree) [][]float32 {
	time.Sleep(s.m.delay)
	out := make([][]float32, t.Len())
	for i := range out {
		out[i] = s.dist()
	}
	return out
}

func (s *stubSession) Accept(toks []model.Token) []float32 {
	s.n += len(toks)
	if len(toks) > 0 {
		s.last = toks[len(toks)-1]
	}
	return s.dist()
}

func (s *stubSession) Len() int { return s.n }

func (s *stubSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.m.mu.Lock()
	s.m.open--
	s.m.mu.Unlock()
}

func (s *stubSession) CacheBytes() int {
	if s.closed {
		return 0
	}
	return s.n * 8
}

type testEnv struct {
	srv  *Server
	eng  *core.Engine
	llm  *stubModel
	http *httptest.Server
}

// newTestEnv builds an incremental-mode engine over the stub model, a
// Server on top, starts the engine loop, and exposes it via httptest.
// Cleanup drains everything.
func newTestEnv(t *testing.T, delay time.Duration, mutate func(*core.Config)) *testEnv {
	t.Helper()
	llm := &stubModel{vocab: 32, delay: delay}
	cfg := core.Config{
		Mode: core.Incremental, LLM: llm,
		Sample: sampling.GreedyConfig(), Seed: 7,
		MaxBatch: 2, QueueDepth: 4,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, MaxNewTokens: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := srv.StartEngine(ctx)
	waitFor(t, func() bool { return eng.Serving() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("engine Serve returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("engine did not drain")
		}
	})
	return &testEnv{srv: srv, eng: eng, llm: llm, http: ts}
}

func waitFor(t *testing.T, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func postGenerate(t *testing.T, url string, body string) (*http.Response, generateResult) {
	t.Helper()
	resp, err := http.Post(url+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	var out generateResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestGenerateNonStreaming(t *testing.T) {
	env := newTestEnv(t, 0, nil)
	resp, out := postGenerate(t, env.http.URL, `{"prompt":[1,2,3],"max_new_tokens":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if out.Error != "" {
		t.Fatalf("unexpected error %q", out.Error)
	}
	if len(out.Tokens) != 8 {
		t.Fatalf("got %d tokens, want 8", len(out.Tokens))
	}
	// The stub emits last+1 mod vocab: deterministic continuation 4,5,...
	for i, tok := range out.Tokens {
		if tok != 4+i {
			t.Fatalf("token %d = %d, want %d", i, tok, 4+i)
		}
	}
	if out.ID <= 0 {
		t.Fatalf("missing request id: %+v", out)
	}
	if out.LatencyMs < 0 || out.QueueDelayMs < 0 {
		t.Fatalf("negative timings: %+v", out)
	}
}

func TestGenerateStreaming(t *testing.T) {
	env := newTestEnv(t, 0, nil)
	resp, err := http.Post(env.http.URL+"/v1/generate", "application/json",
		strings.NewReader(`{"prompt":[5],"max_new_tokens":6,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var streamed []model.Token
	var final *generateResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var chunk streamChunk
		if err := json.Unmarshal(sc.Bytes(), &chunk); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if chunk.Done {
			final = chunk.Result
			break
		}
		streamed = append(streamed, chunk.Tokens...)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("stream ended without a done chunk")
	}
	if final.Error != "" {
		t.Fatalf("unexpected error %q", final.Error)
	}
	if len(streamed) != 6 || len(final.Tokens) != 6 {
		t.Fatalf("streamed %d, final %d, want 6", len(streamed), len(final.Tokens))
	}
	for i := range streamed {
		if streamed[i] != final.Tokens[i] {
			t.Fatalf("stream diverged from result at %d", i)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	env := newTestEnv(t, 0, nil)
	cases := []struct {
		name, body string
	}{
		{"malformed", `{"prompt":`},
		{"empty prompt", `{"prompt":[],"max_new_tokens":4}`},
		{"token out of vocab", `{"prompt":[99],"max_new_tokens":4}`},
		{"negative token", `{"prompt":[-1],"max_new_tokens":4}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(env.http.URL+"/v1/generate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// Oversized budgets clamp rather than fail.
	resp, out := postGenerate(t, env.http.URL, `{"prompt":[1],"max_new_tokens":100000}`)
	if resp.StatusCode != http.StatusOK || len(out.Tokens) != 64 {
		t.Fatalf("clamp failed: status %d, %d tokens", resp.StatusCode, len(out.Tokens))
	}
}

func TestHealthzAndMetricz(t *testing.T) {
	env := newTestEnv(t, 0, nil)
	resp, err := http.Get(env.http.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", resp.StatusCode)
	}

	if _, out := postGenerate(t, env.http.URL, `{"prompt":[2],"max_new_tokens":4}`); out.Error != "" {
		t.Fatalf("generate failed: %q", out.Error)
	}

	mresp, err := http.Get(env.http.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := mresp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	var m metriczResponse
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !m.Serving || m.Draining {
		t.Fatalf("metricz state wrong: %+v", m)
	}
	if m.Submitted != 1 || m.Completed != 1 || m.TokensCommitted != 4 {
		t.Fatalf("metricz counters wrong: %+v", m)
	}
	if m.LatencyMs.N != 1 || m.LatencyMs.Max < 0 {
		t.Fatalf("metricz latency wrong: %+v", m.LatencyMs)
	}
	if m.TTFTMs.N != 1 || m.TTFTMs.Max < 0 || m.TTFTMs.Max > m.LatencyMs.Max {
		t.Fatalf("metricz ttft wrong: %+v (latency %+v)", m.TTFTMs, m.LatencyMs)
	}
	if m.MaxBatch != 2 || m.QueueCap != 4 {
		t.Fatalf("metricz limits wrong: %+v", m)
	}
}

func TestPprofWired(t *testing.T) {
	env := newTestEnv(t, 0, nil)
	resp, err := http.Get(env.http.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline %d, want 200", resp.StatusCode)
	}
}

// TestBackpressure429 saturates MaxBatch=1 slots plus a QueueDepth=1
// queue with slow streaming requests, then asserts the next submit is
// rejected with 429 at the HTTP layer.
func TestBackpressure429(t *testing.T) {
	env := newTestEnv(t, 10*time.Millisecond, func(c *core.Config) {
		c.MaxBatch = 1
		c.QueueDepth = 1
	})

	hold := func(ctx context.Context) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, env.http.URL+"/v1/generate",
			strings.NewReader(`{"prompt":[1],"max_new_tokens":64,"stream":true}`))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return http.DefaultClient.Do(req)
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	respA, err := hold(ctxA)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = respA.Body.Close() }()
	waitFor(t, func() bool { return env.eng.ServeStats().ActiveRequests == 1 })

	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	respB, err := hold(ctxB)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = respB.Body.Close() }()
	waitFor(t, func() bool { return env.eng.ServeStats().QueueDepth == 1 })

	resp, out := postGenerate(t, env.http.URL, `{"prompt":[1],"max_new_tokens":4}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%+v)", resp.StatusCode, out)
	}
	if out.Error == "" {
		t.Fatal("429 body missing error message")
	}
}

// TestClientDisconnectFreesSlot cancels a streaming request mid-flight
// and asserts the engine retires it, reclaiming the batching slot and
// the KV bytes, so a subsequent request succeeds.
func TestClientDisconnectFreesSlot(t *testing.T) {
	env := newTestEnv(t, 10*time.Millisecond, func(c *core.Config) { c.MaxBatch = 1 })

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, env.http.URL+"/v1/generate",
		strings.NewReader(`{"prompt":[1],"max_new_tokens":64,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return env.eng.ServeStats().ActiveRequests == 1 })

	cancel() // client walks away mid-stream
	_ = resp.Body.Close()
	waitFor(t, func() bool {
		st := env.eng.ServeStats()
		return st.ActiveRequests == 0 && st.KVBytesActive == 0
	})
	waitFor(t, func() bool { return env.llm.openSessions() == 0 })

	r2, out := postGenerate(t, env.http.URL, `{"prompt":[3],"max_new_tokens":2}`)
	if r2.StatusCode != http.StatusOK || out.Error != "" {
		t.Fatalf("slot not freed: status %d, %+v", r2.StatusCode, out)
	}
}

func TestTimeoutReturnsPartial(t *testing.T) {
	env := newTestEnv(t, 10*time.Millisecond, nil)
	resp, out := postGenerate(t, env.http.URL,
		`{"prompt":[1],"max_new_tokens":64,"timeout_ms":60}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if out.Error == "" {
		t.Fatal("timeout result missing error")
	}
	if len(out.Tokens) == 0 || len(out.Tokens) >= 64 {
		t.Fatalf("want a partial generation, got %d tokens", len(out.Tokens))
	}
}

func TestDrainingReturns503(t *testing.T) {
	env := newTestEnv(t, 0, nil)
	env.srv.SetDraining()

	resp, err := http.Get(env.http.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d, want 503", resp.StatusCode)
	}

	gresp, out := postGenerate(t, env.http.URL, `{"prompt":[1],"max_new_tokens":4}`)
	if gresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("generate %d, want 503 (%+v)", gresp.StatusCode, out)
	}
}

// TestRunLifecycle exercises the full daemon path over a real TCP
// listener: Run comes up on :0, serves a generation, and drains to a
// nil return when its context is cancelled (the SIGTERM path).
func TestRunLifecycle(t *testing.T) {
	llm := &stubModel{vocab: 32}
	eng, err := core.NewEngine(core.Config{
		Mode: core.Incremental, LLM: llm,
		Sample: sampling.GreedyConfig(), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, MaxNewTokens: 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, "127.0.0.1:0") }()
	waitFor(t, func() bool { return srv.Addr() != "" && eng.Serving() })
	base := "http://" + srv.Addr()

	resp, out := postGenerate(t, base, `{"prompt":[1,2],"max_new_tokens":4}`)
	if resp.StatusCode != http.StatusOK || out.Error != "" {
		t.Fatalf("generate over Run failed: %d %+v", resp.StatusCode, out)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v, want nil after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not shut down")
	}
	if llm.openSessions() != 0 {
		t.Fatalf("%d sessions leaked", llm.openSessions())
	}
}

func TestNewRejectsNilEngine(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil engine")
	}
}

// Exercise the text field through the optional tokenizer hook.
type fakeTok struct{}

func (fakeTok) Decode(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("t%d", id)
	}
	return strings.Join(parts, " ")
}

func TestTokenizerText(t *testing.T) {
	llm := &stubModel{vocab: 32}
	eng, err := core.NewEngine(core.Config{
		Mode: core.Incremental, LLM: llm,
		Sample: sampling.GreedyConfig(), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Tokenizer: fakeTok{}, MaxNewTokens: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := srv.StartEngine(ctx)
	waitFor(t, func() bool { return eng.Serving() })
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		cancel()
		<-done
	}()

	_, out := postGenerate(t, ts.URL, `{"prompt":[1],"max_new_tokens":2}`)
	if out.Text != "t2 t3" {
		t.Fatalf("text %q, want %q", out.Text, "t2 t3")
	}
}

// TestMetriczRecentThroughputAndPrefixCache covers the two PR-5 metricz
// additions: the sliding-window throughput fields are always present
// (and populated once traffic flowed), while the prefix_cache block
// appears only when core.Config.PrefixCacheBytes enables the cache.
func TestMetriczRecentThroughputAndPrefixCache(t *testing.T) {
	getMetricz := func(t *testing.T, url string) metriczResponse {
		t.Helper()
		resp, err := http.Get(url + "/metricz")
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := resp.Body.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		var m metriczResponse
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	t.Run("cache disabled", func(t *testing.T) {
		env := newTestEnv(t, 0, nil)
		if _, out := postGenerate(t, env.http.URL, `{"prompt":[2],"max_new_tokens":6}`); out.Error != "" {
			t.Fatalf("generate failed: %q", out.Error)
		}
		m := getMetricz(t, env.http.URL)
		if m.PrefixCache != nil {
			t.Fatalf("prefix_cache reported with the cache disabled: %+v", m.PrefixCache)
		}
		// 6 committed tokens over >=2 iterations: the recent window has
		// samples and a positive span, so the recent rate is live.
		if m.TokensPerSecRecent <= 0 || m.RecentWindowSeconds <= 0 {
			t.Fatalf("recent throughput not populated: recent=%v window=%vs", m.TokensPerSecRecent, m.RecentWindowSeconds)
		}
	})

	t.Run("cache enabled", func(t *testing.T) {
		env := newTestEnv(t, 0, func(cfg *core.Config) { cfg.PrefixCacheBytes = 1 << 20 })
		m := getMetricz(t, env.http.URL)
		if m.PrefixCache == nil {
			t.Fatal("prefix_cache missing with the cache enabled")
		}
		if m.PrefixCache.MaxBytes != 1<<20 {
			t.Fatalf("prefix_cache max_bytes = %d, want %d", m.PrefixCache.MaxBytes, 1<<20)
		}
		// The stub model shares no pages; the block must still be present
		// and internally consistent (all-zero counters, zero hit rate).
		if m.PrefixCache.Hits != 0 || m.PrefixCache.HitRate != 0 || m.PrefixCache.Bytes != 0 {
			t.Fatalf("stub-model prefix cache reports activity: %+v", m.PrefixCache)
		}
	})
}

// TestMetriczSpecAcceptLen: the accept-length counters must surface on
// /metricz when serving with speculation — spec_verifications counted
// and mean_accepted_len consistent — and stay zero under incremental
// decoding (newTestEnv's default), where no verifier runs.
func TestMetriczSpecAcceptLen(t *testing.T) {
	getMetricz := func(t *testing.T, url string) metriczResponse {
		t.Helper()
		resp, err := http.Get(url + "/metricz")
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := resp.Body.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		var m metriczResponse
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	env := newTestEnv(t, 0, func(cfg *core.Config) {
		cfg.Mode = core.TreeSpec
		cfg.SSMs = []model.Model{&stubModel{vocab: 32}}
	})
	if _, out := postGenerate(t, env.http.URL, `{"prompt":[2],"max_new_tokens":8}`); out.Error != "" {
		t.Fatalf("generate failed: %q", out.Error)
	}
	m := getMetricz(t, env.http.URL)
	if m.SpecVerifications == 0 {
		t.Fatalf("no spec verifications on the tree-spec path: %+v", m)
	}
	if m.MeanAcceptedLen < 0 {
		t.Fatalf("negative mean accepted length: %+v", m)
	}

	inc := newTestEnv(t, 0, nil)
	if _, out := postGenerate(t, inc.http.URL, `{"prompt":[2],"max_new_tokens":4}`); out.Error != "" {
		t.Fatalf("generate failed: %q", out.Error)
	}
	if m := getMetricz(t, inc.http.URL); m.SpecVerifications != 0 || m.MeanAcceptedLen != 0 {
		t.Fatalf("incremental serving reported spec stats: %+v", m)
	}
}
