package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tensor"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// meteredSSM wraps a drafter so that a costClock charges its work: every
// token a session forwards (tree node or accepted token) advances the
// clock by draftTick, and every clock reading by one microsecond. With
// the engine stepping serially, a zero-budget step then measures one
// microsecond and a speculative one many more — a regime where drafting
// is expensive and the zero-budget floor must fire. It also counts open
// sessions, so a leak of the SSM side of a request shows.
type meteredSSM struct {
	model.Model
	rows atomic.Int64 // tokens forwarded by every session
	open atomic.Int64 // sessions created and not yet closed
}

const draftTick = 50 // microseconds charged per SSM token forwarded

func (m *meteredSSM) NewSession() model.Session {
	m.open.Add(1)
	return &meteredSession{Session: m.Model.NewSession(), m: m}
}

type meteredSession struct {
	model.Session
	m      *meteredSSM
	closed bool
}

func (s *meteredSession) DecodeTree(t *tree.Tree) [][]float32 {
	s.m.rows.Add(int64(t.Len()))
	return s.Session.DecodeTree(t)
}

func (s *meteredSession) Accept(tokens []model.Token) []float32 {
	s.m.rows.Add(int64(len(tokens)))
	return s.Session.Accept(tokens)
}

func (s *meteredSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.m.open.Add(-1)
	if c, ok := s.Session.(model.Closer); ok {
		c.Close()
	}
}

// costClock is a Config.Clock that reads the metered drafter's work.
func costClock(m *meteredSSM) func() time.Time {
	var reads atomic.Int64
	base := time.Unix(0, 0)
	return func() time.Time {
		us := reads.Add(1) + draftTick*m.rows.Load()
		return base.Add(time.Duration(us) * time.Microsecond)
	}
}

// floorConfig is a live engine whose policy floors: a metered drafter,
// its cost clock, and serial stepping so every step is timed alone.
func floorConfig(t *testing.T, sample sampling.Config) (Config, *meteredSSM) {
	t.Helper()
	llm, ssm := prefixTestModels(transformer.ArchLLaMA, 1)
	m := &meteredSSM{Model: ssm}
	return Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{m},
		Sample: sample, Seed: 41, MaxBatch: 4, Workers: 1, QueueDepth: 32,
		PrefixCacheBytes: 1 << 20,
		Policy:           &policy.Config{},
		Clock:            costClock(m),
	}, m
}

// serveAll submits reqs to a running engine and collects their results
// in request order.
func serveAll(t *testing.T, eng *Engine, reqs []workload.Request) []Result {
	t.Helper()
	var chans []<-chan Result
	for _, r := range reqs {
		_, rc, err := eng.Submit(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, rc)
	}
	out := make([]Result, len(chans))
	for i, rc := range chans {
		out[i] = mustResult(t, rc, 30*time.Second)
		if out[i].Err != nil {
			t.Fatalf("request %d: %v", reqs[i].ID, out[i].Err)
		}
	}
	return out
}

// TestFloorAlternatingStepsMatchIncremental drives one request through
// a fixed pattern of zero-budget and speculative steps — runs of up to
// three zero steps, so the SSM backlog is caught up several tokens at a
// time — and requires greedy output token-identical to incremental
// decoding, with the zero steps recorded as one-token steps over no tree.
func TestFloorAlternatingStepsMatchIncremental(t *testing.T) {
	llm, ssm := prefixTestModels(transformer.ArchLLaMA, 1)
	req := prefixTrace(1)[0]
	req.MaxNewTok = 40
	inc, _ := run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig()}, []workload.Request{req})

	eng := mustEngine(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Policy: &policy.Config{},
	})
	st := eng.admit(req, eng.prefix)
	defer eng.release(st)
	eng.prefill([]*reqState{st})
	pattern := []bool{true, false, true, true, false, true, true, true, false, false}
	zeros := 0
	for i := 0; !st.done; i++ {
		st.shape = speculator.Shape{}
		if !pattern[i%len(pattern)] {
			d := eng.pol.Decide(req.ID, 0, 1, 8)
			st.shape = speculator.Shape{Budget: d.Budget, SSMs: d.SSMs}
		} else {
			zeros++
		}
		eng.step(st, &ReqIter{})
		if pattern[i%len(pattern)] && (st.res.CommittedPerStep[i] != 1 || st.res.TreeNodesPerStep[i] != 0) {
			t.Fatalf("zero step %d committed %d tokens over %d nodes", i,
				st.res.CommittedPerStep[i], st.res.TreeNodesPerStep[i])
		}
	}
	if zeros == 0 || zeros == st.res.Steps {
		t.Fatalf("%d zero steps of %d: the pattern did not alternate", zeros, st.res.Steps)
	}
	if !reflect.DeepEqual(st.res.Output, inc[0].Output) {
		t.Fatalf("alternating zero/speculative steps changed the output:\n%v\n%v", st.res.Output, inc[0].Output)
	}
}

// TestFloorLiveGreedyMatchesIncremental serves where drafting is
// measured expensive: the floor must fire (most steps zero-budget, with
// probes in between), greedy output must equal incremental decoding,
// and the stats must count zero steps apart from verifications.
func TestFloorLiveGreedyMatchesIncremental(t *testing.T) {
	reqs := prefixTrace(6)
	cfg, _ := floorConfig(t, sampling.GreedyConfig())
	inc, _ := run(t, Config{Mode: Incremental, LLM: cfg.LLM, Sample: sampling.GreedyConfig()}, reqs)

	eng := mustEngine(t, cfg)
	cancel, done := startServe(t, eng)
	res := serveAll(t, eng, reqs)
	for i := range reqs {
		if !reflect.DeepEqual(res[i].Output, inc[i].Output) {
			t.Fatalf("request %d: floored output differs from incremental:\n%v\n%v",
				reqs[i].ID, res[i].Output, inc[i].Output)
		}
	}
	st := eng.ServeStats()
	waitServeExit(t, cancel, done)
	steps, zero := 0, uint64(0)
	for _, r := range res {
		steps += r.Steps
		for _, n := range r.TreeNodesPerStep {
			if n == 0 {
				zero++
			}
		}
	}
	if st.Shape.Steps != uint64(steps) {
		t.Fatalf("shape steps %d, requests stepped %d times", st.Shape.Steps, steps)
	}
	if st.Shape.ZeroSteps == 0 || st.Shape.ZeroSteps+st.SpecVerifications != st.Shape.Steps {
		t.Fatalf("zero steps %d + verifications %d != shape steps %d",
			st.Shape.ZeroSteps, st.SpecVerifications, st.Shape.Steps)
	}
	if share := float64(st.Shape.ZeroSteps) / float64(st.Shape.Steps); share < 0.5 {
		t.Fatalf("zero-budget share %.2f with expensive drafting, want most steps floored", share)
	}
	if zero != st.Shape.ZeroSteps {
		t.Fatalf("chooser counted %d zero steps, requests took %d", st.Shape.ZeroSteps, zero)
	}
}

// TestDeferredCatchUpBitIdentical: an SSM that skips zero-budget steps
// and catches up in one batched Accept must draft bit-identical trees —
// tokens, parents, ranking probabilities and distributions — to one fed
// each token eagerly, and must have forwarded exactly as many tokens.
func TestDeferredCatchUpBitIdentical(t *testing.T) {
	_, ssm := prefixTestModels(transformer.ArchLLaMA, 1)
	sample := sampling.GreedyConfig()
	eagerSSM, lazySSM := &meteredSSM{Model: ssm}, &meteredSSM{Model: ssm}
	eager := speculator.New(speculator.Config{Sample: sample}, eagerSSM)
	lazy := speculator.New(speculator.Config{Sample: sample}, lazySSM)
	defer eager.Close()
	defer lazy.Close()
	dec := speculator.Shape{Budget: tree.Budget{MaxNodes: 6, MaxDepth: 3, FanoutCap: 2}, SSMs: 1}

	prompt := prefixTrace(1)[0].Prompt
	eager.Prefill(prompt)
	lazy.Prefill(prompt)
	rng := tensor.NewRNG(5)
	for round := 0; round < 6; round++ {
		// A run of zero-budget steps: 1..5 committed tokens.
		k := 1 + rng.Intn(5)
		var root model.Token
		for j := 0; j < k; j++ {
			root = rng.Intn(ssm.VocabSize())
			eager.Accept([]model.Token{root})
			lazy.Defer(root)
		}
		got, want := lazy.Speculate(root, dec), eager.Speculate(root, dec)
		requireSameTree(t, fmt.Sprintf("round %d", round), got, want)
		if l, e := lazySSM.rows.Load(), eagerSSM.rows.Load(); l != e {
			t.Fatalf("round %d: %d tokens forwarded after Speculate, eagerly %d: the backlog was not caught up",
				round, l, e)
		}
		// A speculative step: commit a path of the tree plus a bonus.
		var accepted []model.Token
		u := got.Root()
		for len(got.Node(u).Children) > 0 && rng.Intn(3) > 0 {
			u = got.Node(u).Children[0]
			accepted = append(accepted, got.Node(u).Token)
		}
		accepted = append(accepted, rng.Intn(ssm.VocabSize()))
		eager.Accept(accepted)
		lazy.Accept(accepted)
	}
}

// TestFloorBacklogReleasedOnRetire: requests holding an SSM backlog are
// retired by cancellation, by deadline ejection and by a drain timeout;
// every path must close both sides' sessions (LLM KV bytes and open SSM
// sessions back to 0), unpin their prefix-cache entries and drop their
// policy history. Meaningful under -race: stats readers run alongside
// the scheduler.
func TestFloorBacklogReleasedOnRetire(t *testing.T) {
	cases := []struct {
		name   string
		retire func(t *testing.T, eng *Engine, cancelServe context.CancelFunc, done chan error)
	}{
		{"cancel", func(t *testing.T, eng *Engine, _ context.CancelFunc, _ chan error) {
			ctx, cancel := context.WithCancel(context.Background())
			toks, rc, err := eng.Submit(ctx, longRequest(1))
			if err != nil {
				t.Fatal(err)
			}
			awaitTokens(t, toks, 12)
			cancel()
			if r := mustResult(t, rc, 10*time.Second); !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("cancelled request: %v", r.Err)
			}
		}},
		{"deadline", func(t *testing.T, eng *Engine, _ context.CancelFunc, _ chan error) {
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			toks, rc, err := eng.Submit(ctx, longRequest(2))
			if err != nil {
				t.Fatal(err)
			}
			awaitTokens(t, toks, 12)
			if r := mustResult(t, rc, 10*time.Second); !errors.Is(r.Err, context.DeadlineExceeded) {
				t.Fatalf("ejected request: %v", r.Err)
			}
		}},
		{"drain timeout", func(t *testing.T, eng *Engine, cancelServe context.CancelFunc, done chan error) {
			toks, rc, err := eng.Submit(context.Background(), longRequest(3))
			if err != nil {
				t.Fatal(err)
			}
			awaitTokens(t, toks, 12)
			cancelServe()
			if r := mustResult(t, rc, 10*time.Second); !errors.Is(r.Err, ErrDrainTimeout) {
				t.Fatalf("drained request: %v", r.Err)
			}
			if err := <-done; err != nil {
				t.Fatalf("Serve returned %v", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, m := floorConfig(t, sampling.StochasticConfig())
			cfg.DrainTimeout = time.Nanosecond
			eng := mustEngine(t, cfg)
			cancel, done := startServe(t, eng)
			defer cancel()
			tc.retire(t, eng, cancel, done)

			st := waitStats(t, eng, func(st ServeStats) bool {
				return st.ActiveRequests == 0 && st.KVBytesActive == 0
			})
			if p := st.PrefixCache.Pinned; p != 0 {
				t.Fatalf("%d prefix-cache entries still pinned", p)
			}
			if st.Shape.ZeroSteps == 0 {
				t.Fatal("no zero-budget steps: the request never held a backlog")
			}
			ps, _ := eng.PolicyStats()
			if ps.TrackedRequests != 0 || st.Shape.TrackedRequests != 0 {
				t.Fatalf("%d requests still tracked by the policy, %d by the shape chooser",
					ps.TrackedRequests, st.Shape.TrackedRequests)
			}
			if n := m.open.Load(); n != 0 {
				t.Fatalf("%d SSM sessions still open", n)
			}
		})
	}
}

// longRequest outlives the retirement it is submitted to provoke.
func longRequest(id int) workload.Request {
	r := prefixTrace(1)[0]
	r.ID, r.MaxNewTok = id, 5000
	return r
}

func awaitTokens(t *testing.T, toks <-chan model.Token, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-toks:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d tokens streamed", i)
		}
	}
}
