package router

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// fleetModel is a deterministic single-token model with configurable
// per-decode delay and an optional poison trigger: a session whose
// prompt starts with poisonTok panics after panicAfter decode calls.
// Each replica gets its OWN instance (replicas share no state), so a
// poisoned replica's failure tests isolation, not contagion. With gate
// set, a session whose prompt starts with gateTok signals entered at
// its first decode and blocks there until gate is closed, holding its
// replica's iteration open.
type fleetModel struct {
	vocab      int
	tok        model.Token
	delay      time.Duration
	poisonTok  model.Token
	panicAfter int // decode calls before the poison session panics (0 = disabled unless poisoned at prefill)
	poisoned   bool

	gateTok       model.Token
	gate, entered chan struct{}
}

func (m *fleetModel) Name() string   { return "fleet" }
func (m *fleetModel) VocabSize() int { return m.vocab }
func (m *fleetModel) NewSession() model.Session {
	return &fleetSession{m: m}
}

type fleetSession struct {
	m       *fleetModel
	n       int
	decodes int
	poison  bool
	gated   bool
}

func (s *fleetSession) dist() []float32 {
	d := make([]float32, s.m.vocab)
	d[s.m.tok] = 1
	return d
}

func (s *fleetSession) Prefill(p []model.Token) []float32 {
	s.n = len(p)
	s.gated = s.m.gate != nil && len(p) > 0 && p[0] == s.m.gateTok
	if s.m.poisoned && len(p) > 0 && p[0] == s.m.poisonTok {
		s.poison = true
		if s.m.panicAfter == 0 {
			panic("fleetModel: poisoned prefill")
		}
	}
	return s.dist()
}

func (s *fleetSession) Decode(model.Token) []float32 {
	if s.m.delay > 0 {
		time.Sleep(s.m.delay)
	}
	s.decodes++
	if s.gated && s.decodes == 1 {
		s.m.entered <- struct{}{}
		<-s.m.gate
	}
	if s.poison && s.decodes >= s.m.panicAfter {
		panic("fleetModel: poisoned decode")
	}
	s.n++
	return s.dist()
}

func (s *fleetSession) DecodeTree(t *tree.Tree) [][]float32 {
	out := make([][]float32, t.Len())
	for i := range out {
		out[i] = s.dist()
	}
	return out
}

func (s *fleetSession) Accept(toks []model.Token) []float32 {
	s.n += len(toks)
	return s.dist()
}

func (s *fleetSession) Len() int { return s.n }
func (s *fleetSession) Close()   {}

// newFleet builds n engines over independent fleetModel instances.
func newFleet(t *testing.T, n int, mk func(i int) *fleetModel, mut func(cfg *core.Config)) []*core.Engine {
	t.Helper()
	engs := make([]*core.Engine, n)
	for i := range engs {
		cfg := core.Config{
			Mode: core.Incremental, LLM: mk(i),
			Sample: sampling.GreedyConfig(), Seed: 7,
		}
		if mut != nil {
			mut(&cfg)
		}
		eng, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = eng
	}
	return engs
}

// startRouter launches Run on its own goroutine and waits until every
// replica accepts submissions.
func startRouter(t *testing.T, r *Router) (context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for r.FleetStats().Live < r.Replicas() {
		if time.Now().After(deadline) {
			t.Fatal("fleet never came up")
		}
		time.Sleep(time.Millisecond)
	}
	return cancel, done
}

// assertSettled fails unless every replica's in-flight count is back
// to 0: each request the router placed was settled exactly once, on
// completion, cancel, re-route, drain or replica loss. Every replica's
// prefix cache must hold no pin either, a down replica's included: the
// requests that adopted from it, guests on other replicas among them,
// have all released their prefixes.
func assertSettled(t *testing.T, r *Router) {
	t.Helper()
	for _, rs := range r.FleetStats().Replicas {
		if rs.InFlight != 0 {
			t.Fatalf("replica %d still counts %d requests in flight", rs.ID, rs.InFlight)
		}
		if p := r.Replica(rs.ID).PrefixCacheStats().Pinned; p != 0 {
			t.Fatalf("replica %d's prefix cache still holds %d pinned entries", rs.ID, p)
		}
	}
}

func mustFleetResult(t *testing.T, results <-chan core.Result, within time.Duration) core.Result {
	t.Helper()
	select {
	case res := <-results:
		return res
	case <-time.After(within):
		t.Fatal("no Result delivered in time")
		return core.Result{}
	}
}

// TestRingConsistentRemoval: removing one replica remaps only the keys
// it owned; every other key keeps its owner (the property that keeps
// surviving replicas' prefix caches warm through an ejection).
func TestRingConsistentRemoval(t *testing.T) {
	g := newRing(64)
	for id := 0; id < 4; id++ {
		g.add(id)
	}
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = string(rune('a'+i%26)) + strings.Repeat("k", i%7) + string(rune('A'+i/26))
	}
	before := make(map[string]int, len(keys))
	for _, k := range keys {
		id, ok := g.lookup(k)
		if !ok {
			t.Fatal("lookup failed on populated ring")
		}
		before[k] = id
	}
	g.remove(2)
	moved := 0
	for _, k := range keys {
		id, ok := g.lookup(k)
		if !ok {
			t.Fatal("lookup failed after removal")
		}
		if before[k] == 2 {
			if id == 2 {
				t.Fatalf("key %q still maps to removed replica", k)
			}
			moved++
			continue
		}
		if id != before[k] {
			t.Fatalf("key %q moved %d -> %d though its owner was not removed", k, before[k], id)
		}
	}
	if moved == 0 {
		t.Fatal("test vacuous: no key was owned by the removed replica")
	}
	if g.size() != 3 {
		t.Fatalf("ring size %d after removal, want 3", g.size())
	}
}

// TestAffinityKeepsGroupsTogether: under PrefixAffinity every request
// of a shared-prefix group lands on the same replica (warm prefix
// cache), and the same trace under RoundRobin spreads each group
// across replicas — the contrast TestRouterMeasuredVsSimOrdering
// measures end to end.
func TestAffinityKeepsGroupsTogether(t *testing.T) {
	ds := workload.Datasets()[0]
	m := workload.NewMarkov(ds)
	rng := tensor.NewRNG(11)
	reqs := m.GroupedSharedPrefixTrace(rng, 24, 6, 80, 8, 2, 1)

	for _, tc := range []struct {
		policy Policy
		// groupSplit is whether any group should span >1 replica.
		wantSplit bool
	}{
		{PrefixAffinity, false},
		{RoundRobin, true},
	} {
		engs := newFleet(t, 4, func(int) *fleetModel {
			return &fleetModel{vocab: ds.Vocab, tok: 5}
		}, nil)
		r, err := New(Config{Replicas: engs, Policy: tc.policy})
		if err != nil {
			t.Fatal(err)
		}
		cancel, done := startRouter(t, r)

		// Submit group-by-group, one at a time, reading per-replica
		// Submitted deltas to learn each request's placement.
		groupReplicas := make(map[int]map[int]bool)
		for _, req := range reqs {
			beforeCounts := make([]uint64, len(engs))
			for i, e := range engs {
				beforeCounts[i] = e.ServeStats().Submitted
			}
			_, res, err := r.Submit(context.Background(), req)
			if err != nil {
				t.Fatalf("%v: Submit: %v", tc.policy, err)
			}
			if out := mustFleetResult(t, res, 5*time.Second); out.Err != nil {
				t.Fatalf("%v: request %d failed: %v", tc.policy, req.ID, out.Err)
			}
			placed := -1
			for i, e := range engs {
				if e.ServeStats().Submitted > beforeCounts[i] {
					placed = i
					break
				}
			}
			if placed < 0 {
				t.Fatalf("%v: request %d not visible on any replica", tc.policy, req.ID)
			}
			if groupReplicas[req.Group] == nil {
				groupReplicas[req.Group] = map[int]bool{}
			}
			groupReplicas[req.Group][placed] = true
		}

		split := false
		for _, reps := range groupReplicas {
			if len(reps) > 1 {
				split = true
			}
		}
		if split != tc.wantSplit {
			t.Errorf("%v: group split = %v, want %v (placements %v)", tc.policy, split, tc.wantSplit, groupReplicas)
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("%v: Run returned %v", tc.policy, err)
		}
	}
}

// TestFallbackAndShed: when the affine replica is saturated the request
// falls to another replica (rerouted counter); when EVERY queue is full
// Submit sheds with core.ErrQueueFull.
func TestFallbackAndShed(t *testing.T) {
	engs := newFleet(t, 2, func(int) *fleetModel {
		return &fleetModel{vocab: 16, tok: 3, delay: 4 * time.Millisecond}
	}, func(cfg *core.Config) {
		cfg.MaxBatch = 1
		cfg.QueueDepth = 1
	})
	r, err := New(Config{Replicas: engs})
	if err != nil {
		t.Fatal(err)
	}
	cancel, done := startRouter(t, r)
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("Run returned %v", err)
		}
	}()

	// Same prompt -> same affine replica. Capacity per replica is 2
	// (1 active + 1 queued), fleet capacity 4.
	req := func(id int) workload.Request {
		return workload.Request{ID: id, Prompt: []int{9, 9, 9}, MaxNewTok: 400}
	}
	var results []<-chan core.Result
	accepted := 0
	shed := 0
	for i := 0; i < 5; i++ {
		_, res, err := r.Submit(context.Background(), req(i))
		switch {
		case err == nil:
			accepted++
			results = append(results, res)
		case errors.Is(err, core.ErrQueueFull):
			shed++
		default:
			t.Fatalf("Submit %d: unexpected error %v", i, err)
		}
	}
	if accepted != 4 || shed != 1 {
		t.Fatalf("accepted %d shed %d, want 4 and 1", accepted, shed)
	}
	fs := r.FleetStats()
	if fs.Rerouted == 0 {
		t.Fatalf("no request fell back off the saturated affine replica: %+v", fs)
	}
	if fs.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", fs.Shed)
	}
	// Both replicas must be doing work (the fallback landed).
	if engs[0].ServeStats().Submitted == 0 || engs[1].ServeStats().Submitted == 0 {
		t.Fatal("fallback never reached the second replica")
	}
	for _, res := range results {
		if out := mustFleetResult(t, res, 10*time.Second); out.Err != nil {
			t.Fatalf("accepted request failed: %v", out.Err)
		}
	}
}

// TestDrainReplicaMidTraceLosesNothing is the acceptance check: drain
// one replica while a trace is in flight. Every accepted request must
// still complete — queued work on the drained replica is re-routed to
// the survivors — and the drained replica must finish its in-flight
// work gracefully.
func TestDrainReplicaMidTraceLosesNothing(t *testing.T) {
	ds := workload.Datasets()[0]
	engs := newFleet(t, 3, func(int) *fleetModel {
		return &fleetModel{vocab: ds.Vocab, tok: 3, delay: time.Millisecond}
	}, func(cfg *core.Config) {
		cfg.MaxBatch = 1
		cfg.QueueDepth = 32
	})
	r, err := New(Config{Replicas: engs})
	if err != nil {
		t.Fatal(err)
	}
	cancel, done := startRouter(t, r)

	m := workload.NewMarkov(ds)
	rng := tensor.NewRNG(5)
	reqs := m.GroupedSharedPrefixTrace(rng, 36, 3, 24, 4, 8, 1)

	var wg sync.WaitGroup
	errCh := make(chan error, len(reqs))
	submit := func(req workload.Request) {
		toks, res, err := r.Submit(context.Background(), req)
		if err != nil {
			// Admission-time rejection is allowed (it is not an
			// accepted request); losing an ACCEPTED one is not.
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for range toks {
				n++
			}
			out := <-res
			if out.Err != nil {
				errCh <- out.Err
				return
			}
			if n != req.MaxNewTok {
				errCh <- errors.New("short stream on completed request")
			}
		}()
	}

	half := len(reqs) / 2
	for _, req := range reqs[:half] {
		submit(req)
	}
	// Drain a replica while its queue is non-empty.
	if err := r.DrainReplica(1); err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs[half:] {
		submit(req)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("accepted request lost: %v", err)
	}
	assertSettled(t, r)

	fs := r.FleetStats()
	if fs.Replicas[1].State != "down" && fs.Replicas[1].State != "draining" {
		t.Fatalf("drained replica state %q", fs.Replicas[1].State)
	}
	if fs.RingReplicas != 2 {
		t.Fatalf("ring still has %d replicas, want 2", fs.RingReplicas)
	}
	// New work must avoid the drained replica.
	before := engs[1].ServeStats().Submitted
	for i := 0; i < 6; i++ {
		_, res, err := r.Submit(context.Background(), workload.Request{ID: 1000 + i, Prompt: []int{int(i), 2, 3}, MaxNewTok: 2})
		if err != nil {
			t.Fatalf("post-drain Submit: %v", err)
		}
		if out := mustFleetResult(t, res, 5*time.Second); out.Err != nil {
			t.Fatalf("post-drain request failed: %v", out.Err)
		}
	}
	if after := engs[1].ServeStats().Submitted; after != before {
		t.Fatalf("drained replica accepted new work (%d -> %d)", before, after)
	}
	assertSettled(t, r)

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}

// TestReplicaPanicIsolation: a replica whose model panics is ejected;
// its un-streamed request is transparently re-routed to a healthy
// replica, the fleet keeps serving, and Run reports the contained
// panic when it finally exits.
func TestReplicaPanicIsolation(t *testing.T) {
	const poison = 13
	engs := newFleet(t, 2, func(i int) *fleetModel {
		m := &fleetModel{vocab: 32, tok: 3, poisonTok: poison, panicAfter: 0}
		m.poisoned = i == 0 // only replica 0's model is faulty
		return m
	}, nil)
	// RoundRobin makes the poison request's first placement
	// deterministic: replica 0.
	r, err := New(Config{Replicas: engs, Policy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	cancel, done := startRouter(t, r)

	_, res, err := r.Submit(context.Background(), workload.Request{ID: 1, Prompt: []int{poison, 2, 3}, MaxNewTok: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := mustFleetResult(t, res, 10*time.Second)
	if out.Err != nil {
		t.Fatalf("poison request not re-routed to healthy replica: %v", out.Err)
	}
	if len(out.Output) != 4 {
		t.Fatalf("re-routed request output %d tokens, want 4", len(out.Output))
	}
	assertSettled(t, r)

	// Replica 0 must be down with a recorded cause; the fleet serves on.
	deadline := time.Now().Add(5 * time.Second)
	var fs FleetStats
	for {
		fs = r.FleetStats()
		if fs.Replicas[0].State == "down" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failed replica never marked down: %+v", fs.Replicas[0])
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !strings.Contains(fs.Replicas[0].Err, "panic") {
		t.Fatalf("replica 0 error %q, want recorded panic", fs.Replicas[0].Err)
	}
	if fs.Live != 1 || fs.RingReplicas != 1 {
		t.Fatalf("fleet after failure: live %d ring %d, want 1 and 1", fs.Live, fs.RingReplicas)
	}

	for i := 0; i < 4; i++ {
		_, res, err := r.Submit(context.Background(), workload.Request{ID: 10 + i, Prompt: []int{1, 2, 3}, MaxNewTok: 2})
		if err != nil {
			t.Fatalf("Submit after failure: %v", err)
		}
		if out := mustFleetResult(t, res, 5*time.Second); out.Err != nil {
			t.Fatalf("request after failure: %v", out.Err)
		}
	}
	assertSettled(t, r)

	cancel()
	err = <-done
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Run returned %v, want the contained panic cause", err)
	}
}

// TestReplicaPrefillPanicOnWorkerContained: prefills run on the worker
// pool, so a poisoned prefill panics on a pool goroutine. With two
// poisoned requests admitted in one pass at Workers 2, both prefills
// run concurrently; the pool must hand the panic back to the scheduler
// goroutine, where the router contains it: the replica is ejected, the
// process survives, the unstreamed requests move to the healthy
// replica, and Run returns the contained cause.
func TestReplicaPrefillPanicOnWorkerContained(t *testing.T) {
	const (
		poison = 13
		gated  = 7
	)
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	engs := newFleet(t, 2, func(i int) *fleetModel {
		m := &fleetModel{vocab: 32, tok: 3, poisonTok: poison, gateTok: gated, gate: gate, entered: entered}
		m.poisoned = i == 0
		return m
	}, func(cfg *core.Config) { cfg.Workers = 2 })
	// RoundRobin alternates replicas 0, 1, 0, 1, 0 over the submissions
	// below, so the blocker and both poisoned requests land on replica 0.
	r, err := New(Config{Replicas: engs, Policy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	cancel, done := startRouter(t, r)
	submit := func(id int, prompt []int) <-chan core.Result {
		t.Helper()
		_, res, err := r.Submit(context.Background(), workload.Request{ID: id, Prompt: prompt, MaxNewTok: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	blocker := submit(1, []int{gated, 2, 3})
	select {
	case <-entered: // replica 0 is inside the blocker's first step
	case <-time.After(10 * time.Second):
		t.Fatal("blocker never reached its first decode")
	}
	fillers := []<-chan core.Result{submit(2, []int{1, 2, 3})}
	poisoned := []<-chan core.Result{submit(3, []int{poison, 2, 3})}
	fillers = append(fillers, submit(4, []int{1, 2, 4}))
	poisoned = append(poisoned, submit(5, []int{poison, 2, 4}))
	if q := engs[0].QueueLen(); q != 2 {
		t.Fatalf("replica 0 queue holds %d requests, want both poisoned ones", q)
	}
	close(gate) // replica 0 admits both poisoned requests in its next pass

	if out := mustFleetResult(t, blocker, 10*time.Second); !errors.Is(out.Err, ErrReplicaLost) {
		t.Fatalf("blocker streamed a token before the panic, got err %v, want ErrReplicaLost", out.Err)
	}
	for i, res := range append(fillers, poisoned...) {
		if out := mustFleetResult(t, res, 10*time.Second); out.Err != nil || len(out.Output) != 4 {
			t.Fatalf("request %d: err %v, %d tokens; want re-routed and complete", i, out.Err, len(out.Output))
		}
	}
	assertSettled(t, r)
	fs := r.FleetStats()
	if fs.Replicas[0].State != "down" || !strings.Contains(fs.Replicas[0].Err, "poisoned prefill") {
		t.Fatalf("replica 0: state %q err %q, want down with the prefill panic", fs.Replicas[0].State, fs.Replicas[0].Err)
	}
	if fs.Live != 1 || fs.RingReplicas != 1 {
		t.Fatalf("fleet after failure: live %d ring %d, want 1 and 1", fs.Live, fs.RingReplicas)
	}
	cancel()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "panicked: fleetModel: poisoned prefill") {
		t.Fatalf("Run returned %v, want the contained prefill panic", err)
	}
}

// TestReplicaLossMidStream: when the serving replica dies after tokens
// streamed, the request cannot be transparently resumed — the partial
// output is delivered under ErrReplicaLost.
func TestReplicaLossMidStream(t *testing.T) {
	const poison = 13
	engs := newFleet(t, 2, func(i int) *fleetModel {
		m := &fleetModel{vocab: 32, tok: 3, poisonTok: poison, panicAfter: 3, delay: time.Millisecond}
		m.poisoned = i == 0
		return m
	}, nil)
	r, err := New(Config{Replicas: engs, Policy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	cancel, done := startRouter(t, r)
	defer func() {
		cancel()
		<-done // carries the contained panic; this test asserts the request-side view
	}()

	toks, res, err := r.Submit(context.Background(), workload.Request{ID: 1, Prompt: []int{poison, 2, 3}, MaxNewTok: 50})
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	for range toks {
		streamed++
	}
	out := mustFleetResult(t, res, 10*time.Second)
	if !errors.Is(out.Err, ErrReplicaLost) {
		t.Fatalf("mid-stream loss error %v, want ErrReplicaLost", out.Err)
	}
	if streamed == 0 || streamed >= 50 {
		t.Fatalf("streamed %d tokens, want partial progress", streamed)
	}
	assertSettled(t, r)
}

// TestFleetRollup: the rollup sums counters across replicas and pools
// latency windows into exact fleet quantiles.
func TestFleetRollup(t *testing.T) {
	engs := newFleet(t, 3, func(int) *fleetModel {
		return &fleetModel{vocab: 16, tok: 3}
	}, nil)
	r, err := New(Config{Replicas: engs})
	if err != nil {
		t.Fatal(err)
	}
	cancel, done := startRouter(t, r)
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("Run returned %v", err)
		}
	}()

	const n = 12
	for i := 0; i < n; i++ {
		// Distinct prompts spread placements over the ring.
		_, res, err := r.Submit(context.Background(), workload.Request{ID: i, Prompt: []int{i % 16, (i * 3) % 16, 1}, MaxNewTok: 3})
		if err != nil {
			t.Fatal(err)
		}
		if out := mustFleetResult(t, res, 5*time.Second); out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	fs := r.FleetStats()
	if fs.Total.Submitted != n || fs.Total.Completed != n {
		t.Fatalf("rollup submitted %d completed %d, want %d", fs.Total.Submitted, fs.Total.Completed, n)
	}
	var perReplica uint64
	for _, rs := range fs.Replicas {
		perReplica += rs.Completed
	}
	if perReplica != n {
		t.Fatalf("per-replica completions sum to %d, want %d", perReplica, n)
	}
	if fs.Total.Latency.N != n {
		t.Fatalf("pooled latency sample count %d, want %d", fs.Total.Latency.N, n)
	}
	// Every request streamed a first token: the pooled TTFT window holds
	// one sample per request, and its maximum is the slowest replica's.
	var ttftMax float64
	for _, rs := range fs.Replicas {
		ttftMax = max(ttftMax, rs.TTFT.Max)
	}
	if fs.Total.TTFT.N != n || fs.Total.TTFT.Max != ttftMax {
		t.Fatalf("pooled TTFT %+v, want %d samples with max %v", fs.Total.TTFT, n, ttftMax)
	}
	if fs.Total.TokensCommitted != uint64(3*n) {
		t.Fatalf("rollup tokens %d, want %d", fs.Total.TokensCommitted, 3*n)
	}
	if fs.Policy != "prefix-affinity" {
		t.Fatalf("rollup policy %q", fs.Policy)
	}
	if fs.Live != 3 || fs.RingReplicas != 3 {
		t.Fatalf("live %d ring %d, want 3 and 3", fs.Live, fs.RingReplicas)
	}
	// One request at a time never leaves a replica busy: pure affinity.
	if fs.Spilled != 0 {
		t.Fatalf("sequential traffic spilled %d requests", fs.Spilled)
	}
	assertSettled(t, r)
}

// TestSpillToIdleReplica: under PrefixAffinity a request leaves its
// affine replica only when that replica holds spillInFlight requests
// and another live replica holds none; it then lands on the idle one
// as a guest, counted in Spilled, not Rerouted. With every replica
// busy it stays affine. Each replica's model gates its sessions at the
// first decode, so requests stay in flight until the test releases
// them.
func TestSpillToIdleReplica(t *testing.T) {
	const gated = 7
	gates := []chan struct{}{make(chan struct{}), make(chan struct{})}
	entered := []chan struct{}{make(chan struct{}, 8), make(chan struct{}, 8)}
	engs := newFleet(t, 2, func(i int) *fleetModel {
		return &fleetModel{vocab: 16, tok: 3, gateTok: gated, gate: gates[i], entered: entered[i]}
	}, func(cfg *core.Config) { cfg.MaxBatch = 4 })
	r, err := New(Config{Replicas: engs})
	if err != nil {
		t.Fatal(err)
	}
	cancel, done := startRouter(t, r)
	var once sync.Once
	release := func() { once.Do(func() { close(gates[0]); close(gates[1]) }) }
	defer func() {
		release() // a failed check must not leave the replicas gated
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("Run returned %v", err)
		}
	}()

	prompt := []int{gated, 2, 3}
	affine, _ := r.ring.lookup(r.affinityKey(prompt))
	idle := 1 - affine
	var results []<-chan core.Result
	submit := func(id int) {
		t.Helper()
		_, res, err := r.Submit(context.Background(), workload.Request{ID: id, Prompt: prompt, MaxNewTok: 2})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	waitEntered := func(rep int) {
		t.Helper()
		select {
		case <-entered[rep]:
		case <-time.After(10 * time.Second):
			t.Fatalf("replica %d never reached a gated decode", rep)
		}
	}
	submitted := func() [2]uint64 {
		return [2]uint64{engs[0].ServeStats().Submitted, engs[1].ServeStats().Submitted}
	}

	submit(0)
	waitEntered(affine) // the affine replica is inside request 0's first step
	submit(1)           // one in flight is not busy enough to spill
	if got := submitted(); got[affine] != 2 || got[idle] != 0 {
		t.Fatalf("second request placed %v, want both on affine replica %d", got, affine)
	}
	submit(2) // the affine replica holds 2, the other none: spill
	if got := submitted(); got[affine] != 2 || got[idle] != 1 {
		t.Fatalf("third request placed %v, want it on idle replica %d", got, idle)
	}
	waitEntered(idle) // the guest holds the idle replica too
	submit(3)         // every replica busy: pure affinity
	if got := submitted(); got[affine] != 3 || got[idle] != 1 {
		t.Fatalf("fourth request placed %v, want it on affine replica %d", got, affine)
	}

	fs := r.FleetStats()
	if fs.Spilled != 1 || fs.Rerouted != 0 {
		t.Fatalf("spilled %d rerouted %d, want 1 and 0", fs.Spilled, fs.Rerouted)
	}
	if fs.Replicas[affine].InFlight != 3 || fs.Replicas[idle].InFlight != 1 {
		t.Fatalf("in flight %d/%d, want 3 on the affine replica and 1 on the idle one",
			fs.Replicas[affine].InFlight, fs.Replicas[idle].InFlight)
	}
	release()
	for i, res := range results {
		if out := mustFleetResult(t, res, 10*time.Second); out.Err != nil || len(out.Output) != 2 {
			t.Fatalf("request %d: err %v, %d tokens", i, out.Err, len(out.Output))
		}
	}
	assertSettled(t, r)
}

// TestInFlightSettlesOnCancel: a request its client cancels mid-stream
// retires with the context's error and leaves nothing in flight.
func TestInFlightSettlesOnCancel(t *testing.T) {
	engs := newFleet(t, 2, func(int) *fleetModel {
		return &fleetModel{vocab: 16, tok: 3, delay: time.Millisecond}
	}, nil)
	r, err := New(Config{Replicas: engs})
	if err != nil {
		t.Fatal(err)
	}
	stop, done := startRouter(t, r)
	defer func() {
		stop()
		if err := <-done; err != nil {
			t.Fatalf("Run returned %v", err)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	toks, res, err := r.Submit(ctx, workload.Request{ID: 1, Prompt: []int{1, 2, 3}, MaxNewTok: 1000})
	if err != nil {
		t.Fatal(err)
	}
	<-toks
	cancel()
	if out := mustFleetResult(t, res, 10*time.Second); !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("canceled request err %v, want context.Canceled", out.Err)
	}
	assertSettled(t, r)
}

// TestSubmitBeforeRun: a fleet that is not serving rejects cleanly.
func TestSubmitBeforeRun(t *testing.T) {
	engs := newFleet(t, 2, func(int) *fleetModel { return &fleetModel{vocab: 8, tok: 1} }, nil)
	r, err := New(Config{Replicas: engs})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = r.Submit(context.Background(), workload.Request{ID: 1, Prompt: []int{1}, MaxNewTok: 1})
	if !errors.Is(err, core.ErrNotServing) {
		t.Fatalf("Submit before Run: %v, want ErrNotServing", err)
	}
}
