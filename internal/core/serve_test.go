package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"specinfer/internal/kvcache"
	"specinfer/internal/metrics"
	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// slowModel emits a fixed token with a configurable per-step delay and
// fake KV-byte accounting, giving the lifecycle tests deterministic
// control over iteration timing plus direct observability of session
// release (open-session count, per-session closed flag).
type slowModel struct {
	vocab int
	tok   model.Token
	delay time.Duration

	mu   sync.Mutex
	open int
}

func (m *slowModel) Name() string   { return "slow" }
func (m *slowModel) VocabSize() int { return m.vocab }
func (m *slowModel) NewSession() model.Session {
	m.mu.Lock()
	m.open++
	m.mu.Unlock()
	return &slowSession{m: m}
}

func (m *slowModel) openSessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.open
}

type slowSession struct {
	m      *slowModel
	n      int
	closed bool
}

func (s *slowSession) dist() []float32 {
	d := make([]float32, s.m.vocab)
	d[s.m.tok] = 1
	return d
}

func (s *slowSession) Prefill(p []model.Token) []float32 {
	s.n = len(p)
	return s.dist()
}

func (s *slowSession) Decode(model.Token) []float32 {
	time.Sleep(s.m.delay)
	s.n++
	return s.dist()
}

func (s *slowSession) DecodeTree(t *tree.Tree) [][]float32 {
	time.Sleep(s.m.delay)
	out := make([][]float32, t.Len())
	for i := range out {
		out[i] = s.dist()
	}
	return out
}

func (s *slowSession) Accept(toks []model.Token) []float32 {
	s.n += len(toks)
	return s.dist()
}

func (s *slowSession) Len() int { return s.n }

func (s *slowSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.m.mu.Lock()
	s.m.open--
	s.m.mu.Unlock()
}

// CacheBytes implements model.CacheSizer with a transparent formula so
// tests can assert reclamation down to zero.
func (s *slowSession) CacheBytes() int {
	if s.closed {
		return 0
	}
	return s.n * 8
}

// startServe launches Serve on its own goroutine, waits until it
// accepts submissions, and returns a cancel that initiates drain plus a
// channel carrying Serve's return value.
func startServe(t *testing.T, eng *Engine) (context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Serve(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for !eng.ServeStats().Serving {
		if time.Now().After(deadline) {
			t.Fatal("Serve never came up")
		}
		time.Sleep(time.Millisecond)
	}
	return cancel, done
}

func waitServeExit(t *testing.T, cancel context.CancelFunc, done chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not drain in time")
	}
}

func mustResult(t *testing.T, results <-chan Result, within time.Duration) Result {
	t.Helper()
	select {
	case res := <-results:
		return res
	case <-time.After(within):
		t.Fatal("no Result delivered in time")
		return Result{}
	}
}

// waitStats polls ServeStats until pred holds or the deadline passes.
func waitStats(t *testing.T, eng *Engine, pred func(ServeStats) bool) ServeStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := eng.ServeStats()
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeSubmitStreamsAndCompletes: the basic live path — tokens
// stream in commit order, the Result carries the full output, and the
// generation matches the offline Run path token-for-token (the live
// scheduler preserves the engine's determinism).
func TestServeSubmitStreamsAndCompletes(t *testing.T) {
	llm, ssm, reqs := testModels(t, 3, 24)
	cfg := Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 41, MaxBatch: 2,
	}
	offlineEng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	offline, _ := offlineEng.Run(reqs)

	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cancel, done := startServe(t, eng)
	defer waitServeExit(t, cancel, done)

	for i, req := range reqs {
		tokens, results, err := eng.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		var streamed []model.Token
		for tok := range tokens {
			streamed = append(streamed, tok)
		}
		res := mustResult(t, results, 5*time.Second)
		if res.Err != nil {
			t.Fatalf("req %d: unexpected error %v", i, res.Err)
		}
		if len(streamed) != len(res.Output) {
			t.Fatalf("req %d: streamed %d tokens, result has %d", i, len(streamed), len(res.Output))
		}
		for j := range streamed {
			if streamed[j] != res.Output[j] || res.Output[j] != offline[i].Output[j] {
				t.Fatalf("req %d token %d: live serving diverged from offline Run", i, j)
			}
		}
		if res.Latency <= 0 || res.QueueDelay < 0 {
			t.Fatalf("req %d: nonsensical timing %+v", i, res)
		}
	}

	st := eng.ServeStats()
	if st.Completed != 3 || st.Submitted != 3 || st.Canceled != 0 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.TokensCommitted != 3*24 {
		t.Fatalf("tokens committed %d, want 72", st.TokensCommitted)
	}
	if st.Latency.N != 3 {
		t.Fatalf("latency window has %d samples, want 3", st.Latency.N)
	}
}

// TestServeCancellationReleasesSlotAndSession: cancelling a request
// mid-flight must retire it at the next iteration boundary, close its
// session (KV bytes reclaimed, CacheBytes back to 0), and free the
// batching slot for new work.
func TestServeCancellationReleasesSlotAndSession(t *testing.T) {
	llm := &slowModel{vocab: 8, tok: 3, delay: 2 * time.Millisecond}
	eng, err := NewEngine(Config{
		Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(),
		Seed: 1, MaxBatch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelServe, done := startServe(t, eng)
	defer waitServeExit(t, cancelServe, done)

	reqCtx, cancelReq := context.WithCancel(context.Background())
	tokens, results, err := eng.Submit(reqCtx, workload.Request{
		ID: 7, Prompt: []int{1, 2}, MaxNewTok: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let it commit a few tokens, then cancel mid-flight.
	for i := 0; i < 3; i++ {
		select {
		case <-tokens:
		case <-time.After(5 * time.Second):
			t.Fatal("no tokens before cancellation")
		}
	}
	cancelReq()

	res := mustResult(t, results, 5*time.Second)
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("result error %v, want context.Canceled", res.Err)
	}
	if len(res.Output) < 3 || len(res.Output) >= 5000 {
		t.Fatalf("cancelled request output length %d, want partial", len(res.Output))
	}

	st := waitStats(t, eng, func(st ServeStats) bool {
		return st.ActiveRequests == 0 && st.KVBytesActive == 0
	})
	if st.Canceled != 1 {
		t.Fatalf("canceled count %d, want 1: %+v", st.Canceled, st)
	}
	if open := llm.openSessions(); open != 0 {
		t.Fatalf("%d sessions still open after cancellation", open)
	}

	// The freed slot must accept new work immediately.
	_, results2, err := eng.Submit(context.Background(), workload.Request{
		ID: 8, Prompt: []int{1}, MaxNewTok: 4,
	})
	if err != nil {
		t.Fatalf("Submit after cancellation: %v", err)
	}
	if res2 := mustResult(t, results2, 5*time.Second); res2.Err != nil {
		t.Fatalf("follow-up request failed: %v", res2.Err)
	}
}

// TestServeDeadlineExpiry: a request whose context deadline passes is
// retired with context.DeadlineExceeded and its partial output.
func TestServeDeadlineExpiry(t *testing.T) {
	llm := &slowModel{vocab: 8, tok: 3, delay: 2 * time.Millisecond}
	eng, err := NewEngine(Config{
		Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelServe, done := startServe(t, eng)
	defer waitServeExit(t, cancelServe, done)

	reqCtx, cancelReq := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancelReq()
	_, results, err := eng.Submit(reqCtx, workload.Request{
		ID: 1, Prompt: []int{1, 2}, MaxNewTok: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := mustResult(t, results, 5*time.Second)
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("result error %v, want context.DeadlineExceeded", res.Err)
	}
	if len(res.Output) == 0 || len(res.Output) >= 100000 {
		t.Fatalf("expired request output length %d, want partial progress", len(res.Output))
	}
	if llm.openSessions() != 0 {
		t.Fatal("session not released after deadline expiry")
	}
}

// TestServeBackpressure: with MaxBatch slots busy and QueueDepth
// requests waiting, Submit must reject with ErrQueueFull — and accept
// again once capacity frees up.
func TestServeBackpressure(t *testing.T) {
	llm := &slowModel{vocab: 8, tok: 3, delay: 2 * time.Millisecond}
	eng, err := NewEngine(Config{
		Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(),
		Seed: 1, MaxBatch: 1, QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelServe, done := startServe(t, eng)
	defer waitServeExit(t, cancelServe, done)

	// A occupies the single slot (confirmed by its first token).
	aCtx, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	tokA, resA, err := eng.Submit(aCtx, workload.Request{
		ID: 1, Prompt: []int{1}, MaxNewTok: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tokA:
	case <-time.After(5 * time.Second):
		t.Fatal("request A never started")
	}

	// B fills the queue.
	_, resB, err := eng.Submit(context.Background(), workload.Request{
		ID: 2, Prompt: []int{1}, MaxNewTok: 8,
	})
	if err != nil {
		t.Fatalf("queueing submit rejected: %v", err)
	}

	// C must bounce off the full queue.
	if _, _, err := eng.Submit(context.Background(), workload.Request{
		ID: 3, Prompt: []int{1}, MaxNewTok: 8,
	}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	if st := eng.ServeStats(); st.Rejected != 1 {
		t.Fatalf("rejected count %d, want 1", st.Rejected)
	}

	// Cancelling A frees the slot at the next iteration boundary: B is
	// admitted, runs to completion, and the queue accepts work again.
	cancelA()
	if a := mustResult(t, resA, 5*time.Second); !errors.Is(a.Err, context.Canceled) {
		t.Fatalf("A error %v, want context.Canceled", a.Err)
	}
	if b := mustResult(t, resB, 5*time.Second); b.Err != nil || len(b.Output) != 8 {
		t.Fatalf("queued request B must complete after A frees the slot: %+v", b)
	}
	_, resD, err := eng.Submit(context.Background(), workload.Request{
		ID: 4, Prompt: []int{1}, MaxNewTok: 4,
	})
	if err != nil {
		t.Fatalf("Submit after queue drained: %v", err)
	}
	if d := mustResult(t, resD, 5*time.Second); d.Err != nil {
		t.Fatalf("post-backpressure request failed: %v", d.Err)
	}
}

// TestServeGracefulDrain: cancelling the Serve context finishes
// in-flight requests completely, rejects queued-but-unadmitted and new
// requests, and Serve returns nil.
func TestServeGracefulDrain(t *testing.T) {
	llm := &slowModel{vocab: 8, tok: 3, delay: time.Millisecond}
	eng, err := NewEngine(Config{
		Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(),
		Seed: 1, MaxBatch: 1, QueueDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Serve(ctx) }()
	waitStats(t, eng, func(st ServeStats) bool { return st.Serving })

	// A in flight (slow enough to still be running when drain starts),
	// B queued behind it.
	_, resA, err := eng.Submit(context.Background(), workload.Request{
		ID: 1, Prompt: []int{1}, MaxNewTok: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, eng, func(st ServeStats) bool { return st.ActiveRequests == 1 })
	_, resB, err := eng.Submit(context.Background(), workload.Request{
		ID: 2, Prompt: []int{1}, MaxNewTok: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	cancel()

	a := mustResult(t, resA, 10*time.Second)
	if a.Err != nil {
		t.Fatalf("in-flight request must complete through drain, got %v", a.Err)
	}
	if len(a.Output) != 120 {
		t.Fatalf("drained request output %d tokens, want its full 120", len(a.Output))
	}
	b := mustResult(t, resB, 10*time.Second)
	if !errors.Is(b.Err, ErrDraining) {
		t.Fatalf("queued request must be rejected by drain, got %v", b.Err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	// Fully stopped: submissions now report not-serving.
	if _, _, err := eng.Submit(context.Background(), workload.Request{
		ID: 3, Prompt: []int{1}, MaxNewTok: 4,
	}); !errors.Is(err, ErrNotServing) {
		t.Fatalf("expected ErrNotServing after drain, got %v", err)
	}
	if llm.openSessions() != 0 {
		t.Fatal("sessions leaked through drain")
	}
}

// TestServeDrainTimeout: requests still in flight past DrainTimeout are
// force-retired with ErrDrainTimeout so Serve can return.
func TestServeDrainTimeout(t *testing.T) {
	llm := &slowModel{vocab: 8, tok: 3, delay: 3 * time.Millisecond}
	eng, err := NewEngine(Config{
		Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(),
		Seed: 1, DrainTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Serve(ctx) }()
	waitStats(t, eng, func(st ServeStats) bool { return st.Serving })

	_, results, err := eng.Submit(context.Background(), workload.Request{
		ID: 1, Prompt: []int{1}, MaxNewTok: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, eng, func(st ServeStats) bool { return st.ActiveRequests == 1 })
	cancel()

	res := mustResult(t, results, 10*time.Second)
	if !errors.Is(res.Err, ErrDrainTimeout) {
		t.Fatalf("result error %v, want ErrDrainTimeout", res.Err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve stuck past its drain timeout")
	}
	if llm.openSessions() != 0 {
		t.Fatal("session leaked through drain timeout")
	}
}

// TestServeLifecycleErrors pins the fail-fast paths: submitting with no
// scheduler, double Serve, and malformed requests.
func TestServeLifecycleErrors(t *testing.T) {
	llm := &slowModel{vocab: 8, tok: 3}
	eng, err := NewEngine(Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Submit(context.Background(), workload.Request{
		ID: 1, Prompt: []int{1}, MaxNewTok: 4,
	}); !errors.Is(err, ErrNotServing) {
		t.Fatalf("expected ErrNotServing, got %v", err)
	}

	cancel, done := startServe(t, eng)
	defer waitServeExit(t, cancel, done)
	waitStats(t, eng, func(st ServeStats) bool { return st.Serving })

	if err := eng.Serve(context.Background()); !errors.Is(err, ErrAlreadyServing) {
		t.Fatalf("expected ErrAlreadyServing, got %v", err)
	}
	if _, _, err := eng.Submit(context.Background(), workload.Request{ID: 1, MaxNewTok: 4}); err == nil {
		t.Fatal("empty prompt must be rejected")
	}
	if _, _, err := eng.Submit(context.Background(), workload.Request{ID: 1, Prompt: []int{1}}); err == nil {
		t.Fatal("non-positive MaxNewTok must be rejected")
	}
	if !eng.Serving() {
		t.Fatal("Serving() must report true while accepting")
	}
}

// TestServeConcurrentSubmitters hammers Submit from many goroutines to
// exercise the admission path under the race detector.
func TestServeConcurrentSubmitters(t *testing.T) {
	llm, ssm, _ := testModels(t, 1, 1)
	eng, err := NewEngine(Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 2, MaxBatch: 4, QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel, done := startServe(t, eng)
	defer waitServeExit(t, cancel, done)

	// Markov generation caches lazily and is not goroutine-safe: build
	// the prompts serially, submit concurrently.
	mk := workload.NewMarkov(workload.DatasetByName("Alpaca"))
	const n = 24
	prompts := make([][]model.Token, n)
	for i := range prompts {
		prompts[i] = mk.Generate(tensor.NewRNG(uint64(i)*7+1), 8)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results, err := eng.Submit(context.Background(), workload.Request{
				ID: i, Prompt: prompts[i], MaxNewTok: 12,
			})
			if err != nil {
				errs[i] = err // ErrQueueFull is legitimate backpressure
				return
			}
			res := <-results
			errs[i] = res.Err
		}(i)
	}
	wg.Wait()
	completed := 0
	for i, err := range errs {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrQueueFull):
		default:
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	if completed == 0 {
		t.Fatal("no request completed")
	}
	st := eng.ServeStats()
	if st.Completed != uint64(completed) {
		t.Fatalf("stats completed %d, want %d", st.Completed, completed)
	}
}

// TestServeSweepsDeadQueuedRequests is the regression test for the
// admission-queue sweep: requests whose context dies while QUEUED used
// to sit in the admission channel until a batch slot freed up to admit
// (and only then discard) them, so a queue full of dead requests bounced
// live submitters with spurious ErrQueueFull. The sweep must retire them
// at the next iteration boundary even though the only batch slot never
// frees.
func TestServeSweepsDeadQueuedRequests(t *testing.T) {
	llm := &slowModel{vocab: 8, tok: 3, delay: 2 * time.Millisecond}
	eng, err := NewEngine(Config{
		Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(),
		Seed: 1, MaxBatch: 1, QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelServe, done := startServe(t, eng)
	defer waitServeExit(t, cancelServe, done)

	// A occupies the only slot for the whole test.
	ctxA, cancelA := context.WithCancel(context.Background())
	_, resA, err := eng.Submit(ctxA, workload.Request{ID: 0, Prompt: []int{1}, MaxNewTok: 100000})
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, eng, func(st ServeStats) bool { return st.ActiveRequests == 1 })

	// Fill the queue with requests whose context is already dead.
	deadCtx, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	var deadResults []<-chan Result
	for i := 1; i <= 2; i++ {
		_, res, err := eng.Submit(deadCtx, workload.Request{ID: i, Prompt: []int{2}, MaxNewTok: 8})
		if err != nil {
			t.Fatalf("Submit dead %d: %v", i, err)
		}
		deadResults = append(deadResults, res)
	}

	// The sweep must retire both while A still holds the slot.
	for i, res := range deadResults {
		r := mustResult(t, res, 5*time.Second)
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("dead request %d: err %v, want context.Canceled", i+1, r.Err)
		}
		if len(r.Output) != 0 {
			t.Fatalf("dead request %d committed %d tokens from the queue", i+1, len(r.Output))
		}
	}

	// The queue slots they held are live again: a real request is
	// accepted instead of bouncing with ErrQueueFull.
	_, resD, err := eng.Submit(context.Background(), workload.Request{ID: 3, Prompt: []int{3}, MaxNewTok: 4})
	if err != nil {
		t.Fatalf("Submit after sweep: %v (queue still clogged by dead requests?)", err)
	}
	if st := eng.ServeStats(); st.Canceled != 2 {
		t.Fatalf("canceled count %d, want 2 swept requests", st.Canceled)
	}

	// Release the slot; D must then run to completion.
	cancelA()
	if r := mustResult(t, resA, 5*time.Second); !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("request A: err %v, want context.Canceled", r.Err)
	}
	if r := mustResult(t, resD, 5*time.Second); r.Err != nil || len(r.Output) != 4 {
		t.Fatalf("request D after sweep: err %v, %d tokens; want clean 4-token completion", r.Err, len(r.Output))
	}
}

// TestServeDrainRejectsQueuedImmediately is the regression test for
// drain-time queue rejection: a QUEUED request used to receive its
// ErrDraining only in stopServing, after every in-flight request ran to
// completion — its client waited the full tail latency for a rejection
// that was decided the moment drain began. The rejection must arrive
// while the in-flight request is still running.
func TestServeDrainRejectsQueuedImmediately(t *testing.T) {
	llm := &slowModel{vocab: 8, tok: 3, delay: 3 * time.Millisecond}
	eng, err := NewEngine(Config{
		Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(),
		Seed: 1, MaxBatch: 1, QueueDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelServe, done := startServe(t, eng)

	// A's generation floor is minutes of work; it occupies the only slot
	// until its context is cancelled.
	ctxA, cancelA := context.WithCancel(context.Background())
	_, resA, err := eng.Submit(ctxA, workload.Request{ID: 0, Prompt: []int{1}, MaxNewTok: 100000})
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, eng, func(st ServeStats) bool { return st.ActiveRequests == 1 })

	_, resB, err := eng.Submit(context.Background(), workload.Request{ID: 1, Prompt: []int{2}, MaxNewTok: 5})
	if err != nil {
		t.Fatal(err)
	}

	cancelServe()
	// B's rejection must not wait for A: it arrives within the drain's
	// first iterations, orders of magnitude before A's completion floor.
	rB := mustResult(t, resB, 2*time.Second)
	if !errors.Is(rB.Err, ErrDraining) {
		t.Fatalf("queued request err %v, want ErrDraining", rB.Err)
	}
	select {
	case r := <-resA:
		t.Fatalf("in-flight request already finished (%v) — B's rejection proved nothing", r.Err)
	default:
	}

	cancelA()
	if r := mustResult(t, resA, 5*time.Second); !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("request A: err %v, want context.Canceled", r.Err)
	}
	waitServeExit(t, cancelServe, done)
}

// manualClock is a hand-advanced clock for deterministic throughput math.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestServeRecentThroughputTracksCurrentTraffic pins the sliding-window
// throughput: unlike the lifetime average, the recent figure must follow
// the CURRENT commit rate once the sample window slides past old
// traffic, and decay toward zero across idle stretches.
func TestServeRecentThroughputTracksCurrentTraffic(t *testing.T) {
	llm := &slowModel{vocab: 8, tok: 3}
	eng, err := NewEngine(Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	clk := &manualClock{t: time.Unix(1000, 0)}
	s := &serveState{
		admit:      make(chan *liveReq, 1),
		clock:      clk.now,
		started:    clk.now(),
		latency:    metrics.NewWindow(8),
		queueDelay: metrics.NewWindow(8),
		ttft:       metrics.NewWindow(8),
		recentT:    metrics.NewWindow(recentThroughputSamples),
		recentC:    metrics.NewWindow(recentThroughputSamples),
	}
	eng.mu.Lock()
	eng.srv = s
	eng.mu.Unlock()

	approx := func(name string, got, want float64) {
		t.Helper()
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}

	if st := eng.ServeStats(); st.RecentTokensPerSec != 0 || st.RecentWindowSeconds != 0 {
		t.Fatalf("recent throughput before any iteration: %+v", st)
	}

	// Phase 1: 200 one-second iterations at 10 tokens each. Lifetime and
	// recent agree at 10 tok/s (the window holds the last 128 samples,
	// all from the same steady phase).
	for i := 0; i < 200; i++ {
		clk.advance(time.Second)
		s.recordIteration(IterationRecord{Reqs: []ReqIter{{Committed: 10}}})
	}
	st := eng.ServeStats()
	approx("lifetime after steady phase", st.TokensPerSec, 10)
	approx("recent after steady phase", st.RecentTokensPerSec, 10)

	// Phase 2: traffic drops to 1 token/s for 100 iterations. The
	// lifetime average still credits the old burst (7 tok/s); the recent
	// figure's window now spans iterations 173..300 — 127 seconds, 370
	// tokens — and reports the drop.
	for i := 0; i < 100; i++ {
		clk.advance(time.Second)
		s.recordIteration(IterationRecord{Reqs: []ReqIter{{Committed: 1}}})
	}
	st = eng.ServeStats()
	approx("lifetime after slowdown", st.TokensPerSec, 7)
	approx("recent window span", st.RecentWindowSeconds, 127)
	approx("recent after slowdown", st.RecentTokensPerSec, 370.0/127.0)
	if st.RecentTokensPerSec >= st.TokensPerSec/2 {
		t.Fatalf("recent %v did not fall below lifetime %v", st.RecentTokensPerSec, st.TokensPerSec)
	}

	// Phase 3: 700 idle seconds. Lifetime keeps averaging the idle time
	// in; recent decays toward zero over the stretched window.
	clk.advance(700 * time.Second)
	st = eng.ServeStats()
	approx("lifetime after idle", st.TokensPerSec, 2.1)
	approx("recent window after idle", st.RecentWindowSeconds, 827)
	approx("recent after idle", st.RecentTokensPerSec, 370.0/827.0)

	eng.mu.Lock()
	eng.srv = nil
	eng.mu.Unlock()
}

// TestServeSpecAcceptStats: the live path must aggregate verifier
// accept lengths — verifications counted, mean consistent with the
// accepted totals, commits bounded by accepted+bonus — and incremental
// serving must report none.
func TestServeSpecAcceptStats(t *testing.T) {
	llm, ssm, reqs := testModels(t, 3, 24)
	eng, err := NewEngine(Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.StochasticConfig(), Verifier: VerifierTraversal,
		Seed: 41, MaxBatch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel, done := startServe(t, eng)
	for i, req := range reqs {
		_, results, err := eng.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if res := mustResult(t, results, 10*time.Second); res.Err != nil {
			t.Fatalf("req %d: %v", i, res.Err)
		}
	}
	st := eng.ServeStats()
	waitServeExit(t, cancel, done)
	if st.SpecVerifications == 0 {
		t.Fatal("no spec verifications counted on the tree-spec path")
	}
	mean := float64(st.SpecTokensAccepted) / float64(st.SpecVerifications)
	if st.MeanAcceptedLen != mean {
		t.Fatalf("MeanAcceptedLen %v inconsistent with totals %d/%d", st.MeanAcceptedLen, st.SpecTokensAccepted, st.SpecVerifications)
	}
	// Every verification commits its accepted tokens plus one bonus,
	// minus any budget truncation, and every zero step the shape
	// chooser grants commits one token.
	if st.TokensCommitted > st.SpecTokensAccepted+st.SpecVerifications+st.Shape.ZeroSteps {
		t.Fatalf("committed %d > accepted %d + verifications %d + zero steps %d",
			st.TokensCommitted, st.SpecTokensAccepted, st.SpecVerifications, st.Shape.ZeroSteps)
	}

	inc, err := NewEngine(Config{Mode: Incremental, LLM: llm, Sample: sampling.StochasticConfig(), Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	cancel, done = startServe(t, inc)
	defer waitServeExit(t, cancel, done)
	_, results, err := inc.Submit(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res := mustResult(t, results, 10*time.Second); res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := inc.ServeStats(); st.SpecVerifications != 0 || st.MeanAcceptedLen != 0 {
		t.Fatalf("incremental serving reported spec stats: %+v", st)
	}
}

// TestSumServeStats: a fleet's rollup sums counters, gauges and bounds,
// takes the longest uptime and recent window, pools the sample windows
// for its quantiles, recomputes the mean accept length and the prefix
// hit rate from the sums, weights the shape choosers' cost estimates by
// their steps, turns a block on when any engine's is, and leaves Serving
// and Draining to the fleet's owner.
func TestSumServeStats(t *testing.T) {
	a := ServeStats{
		Serving: true, QueueDepth: 1, QueueCap: 4, ActiveRequests: 2, MaxBatch: 2,
		Submitted: 3, Completed: 2, Canceled: 1, Iterations: 10, TokensCommitted: 30,
		SpecVerifications: 4, SpecTokensAccepted: 8, MeanAcceptedLen: 2,
		KVBytesActive: 100, UptimeSeconds: 5, TokensPerSec: 6,
		RecentTokensPerSec: 7, RecentWindowSeconds: 3,
		LatencySamples:     metrics.Snapshot{Values: []float64{1, 2}, Total: 2},
		TTFTSamples:        metrics.Snapshot{Values: []float64{0.5}, Total: 1},
		PrefixCacheEnabled: true,
		PrefixCache:        kvcache.PrefixStats{Hits: 1, Misses: 3, Bytes: 10, MaxBytes: 100, Pinned: 1},
		ShapeEnabled:       true,
		Shape: policy.ChooserStats{Steps: 1, ZeroSteps: 1, ZeroCost: 1e-3,
			Cost: policy.CostModel{PerNode: 4e-3}, TrackedRequests: 1},
	}
	b := ServeStats{
		Draining: true, QueueCap: 4, MaxBatch: 2, Submitted: 1, Rejected: 2,
		Iterations: 5, TokensCommitted: 9, SpecVerifications: 1, SpecTokensAccepted: 2,
		UptimeSeconds: 8, TokensPerSec: 1, RecentWindowSeconds: 1,
		LatencySamples:     metrics.Snapshot{Values: []float64{7}, Total: 4},
		PolicyEnabled:      true,
		PolicyLatencyIters: 3, PolicySpecBudget: 6, PolicyTrackedRequests: 1,
		PrefixCache:  kvcache.PrefixStats{Hits: 3, Misses: 1, MaxBytes: 100},
		ShapeEnabled: true,
		Shape: policy.ChooserStats{Steps: 3, ZeroSteps: 1, Probes: 1,
			StepsByDepth: []uint64{0, 2}, ZeroCost: 2e-3},
	}
	sum := SumServeStats(a, b)
	if !sum.PrefixCacheEnabled || !sum.PolicyEnabled || !sum.ShapeEnabled {
		t.Fatalf("a block one engine has is off in the sum: %+v", sum)
	}
	if sum.Serving || sum.Draining {
		t.Fatalf("the sum sets the fleet's own Serving/Draining: %+v", sum)
	}
	if sum.QueueCap != 8 || sum.MaxBatch != 4 || sum.ActiveRequests != 2 || sum.Submitted != 4 ||
		sum.Rejected != 2 || sum.Iterations != 15 || sum.TokensCommitted != 39 ||
		sum.KVBytesActive != 100 || sum.TokensPerSec != 7 || sum.RecentTokensPerSec != 7 {
		t.Fatalf("counters not summed: %+v", sum)
	}
	if sum.UptimeSeconds != 8 || sum.RecentWindowSeconds != 3 {
		t.Fatalf("uptime %v, recent window %v: want the longest", sum.UptimeSeconds, sum.RecentWindowSeconds)
	}
	if sum.MeanAcceptedLen != 2 {
		t.Fatalf("mean accept length %v, want 10/5 from the summed counters", sum.MeanAcceptedLen)
	}
	if sum.Latency.N != 3 || sum.Latency.Max != 7 || sum.LatencySamples.Total != 6 || sum.TTFT.N != 1 {
		t.Fatalf("pooled latency %+v (total %d), TTFT %+v", sum.Latency, sum.LatencySamples.Total, sum.TTFT)
	}
	if p := sum.PrefixCache; p.Hits != 4 || p.Misses != 4 || p.HitRate() != 0.5 || p.MaxBytes != 200 || p.Pinned != 1 {
		t.Fatalf("prefix cache sum %+v", p)
	}
	if sum.PolicyLatencyIters != 3 || sum.PolicySpecBudget != 6 || sum.PolicyTrackedRequests != 1 {
		t.Fatalf("policy sum %+v", sum)
	}
	sh := sum.Shape
	if sh.Steps != 4 || sh.ZeroSteps != 2 || sh.Probes != 1 || sh.TrackedRequests != 1 ||
		len(sh.StepsByDepth) != 2 || sh.StepsByDepth[1] != 2 {
		t.Fatalf("shape counts %+v", sh)
	}
	if !tensor.ApproxEq(sh.ZeroCost, (1e-3+3*2e-3)/4, 1e-12) || !tensor.ApproxEq(sh.Cost.PerNode, 1e-3, 1e-12) {
		t.Fatalf("shape costs %+v, want means weighted by steps", sh)
	}
}
