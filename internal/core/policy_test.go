package core

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// TestPolicyLosslessGreedy: the policy engine reshapes speculation per
// iteration but must never change the output — greedy verification is
// lossless for any tree, including the policy's moving budgets and
// merged ensembles.
func TestPolicyLosslessGreedy(t *testing.T) {
	llm, ssm, reqs := testModels(t, 6, 48)
	inc, _ := run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 7}, reqs)
	pol, _ := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 7,
		Policy: &policy.Config{},
	}, reqs)
	for i := range inc {
		if !reflect.DeepEqual(inc[i].Output, pol[i].Output) {
			t.Fatalf("request %d: policy output differs from incremental:\n%v\n%v",
				i, inc[i].Output, pol[i].Output)
		}
	}
}

// TestPolicyRecordsDecisions: offline Run has no admission queue, so
// every iteration must be decided in latency mode, with one budget and
// SSM-count entry per active request.
func TestPolicyRecordsDecisions(t *testing.T) {
	llm, ssm, reqs := testModels(t, 4, 24)
	_, iters := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 11, MaxBatch: 8,
		Policy: &policy.Config{},
	}, reqs)
	for i, rec := range iters {
		if rec.PolicyMode != policy.Latency.String() {
			t.Fatalf("iter %d: mode %q, want latency (offline run: no queue, batch underfull)", i, rec.PolicyMode)
		}
		for j, r := range rec.Reqs {
			if r.PolicyNodes < 1 {
				t.Fatalf("iter %d req %d: node budget %d < 1", i, j, r.PolicyNodes)
			}
		}
	}
}

// TestPolicyDeterministicAcrossWorkers: identical trace and seed must
// yield identical outputs AND identical policy decisions for every
// Workers setting — decisions are computed serially on the scheduler
// goroutine, so no parallelism axis can perturb them.
func TestPolicyDeterministicAcrossWorkers(t *testing.T) {
	llm := transformer.New(transformer.Config{
		Name: "pol-llm", Vocab: 64, Hidden: 32, Heads: 4, FFN: 64, Layers: 2, Seed: 1,
	})
	ssm := transformer.New(transformer.Config{
		Name: "pol-ssm", Vocab: 64, Hidden: 16, Heads: 2, FFN: 32, Layers: 1, Seed: 2,
	})
	reqs := []workload.Request{
		{ID: 0, Prompt: []int{1, 2, 3, 4, 5}, MaxNewTok: 12},
		{ID: 1, Prompt: []int{9, 8, 7}, MaxNewTok: 12},
		{ID: 2, Prompt: []int{5, 5, 6, 6}, MaxNewTok: 12},
	}
	type outcome struct {
		res   []RequestResult
		iters []IterationRecord
	}
	var base *outcome
	for _, workers := range []int{1, 2, 4} {
		res, iters := run(t, Config{
			Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
			Sample: sampling.GreedyConfig(), Seed: 17,
			MaxBatch: 2, Workers: workers,
			Policy: &policy.Config{},
		}, reqs)
		if base == nil {
			base = &outcome{res, iters}
			continue
		}
		if !reflect.DeepEqual(base.res, res) {
			t.Fatalf("workers=%d: results differ from workers=1", workers)
		}
		if !reflect.DeepEqual(base.iters, iters) {
			t.Fatalf("workers=%d: iteration records (incl. policy decisions) differ", workers)
		}
	}
	// The records must actually carry decisions, or the comparison above
	// proves nothing about the policy.
	if len(base.iters) == 0 || base.iters[0].PolicyMode == "" || len(base.iters[0].Reqs) == 0 {
		t.Fatal("iteration records carry no policy decisions")
	}
}

// TestPolicyRunOnlineDeterministicAcrossWorkers: the co-simulated
// online path prices iterations but measures nothing, so its policy
// decisions — and everything downstream — must not depend on Workers.
func TestPolicyRunOnlineDeterministicAcrossWorkers(t *testing.T) {
	llm, ssm, reqs := testModels(t, 8, 16)
	timed := make([]TimedRequest, len(reqs))
	for i, r := range reqs {
		timed[i] = TimedRequest{Request: r, Arrival: 0.002 * float64(i)}
	}
	pricer := func(rec IterationRecord) float64 {
		rows := 0
		for _, r := range rec.Reqs {
			rows += r.TreeNodes + 1
		}
		return 1e-4 * float64(rows)
	}
	var base []OnlineResult
	var baseIters []IterationRecord
	for _, workers := range []int{1, 2, 4} {
		eng := mustEngine(t, Config{
			Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
			Sample: sampling.StochasticConfig(), Seed: 23,
			MaxBatch: 3, Workers: workers,
			Policy: &policy.Config{QueueHighWater: 2},
		})
		res, iters := eng.RunOnline(timed, pricer)
		if base == nil {
			base, baseIters = res, iters
			continue
		}
		if !reflect.DeepEqual(base, res) || !reflect.DeepEqual(baseIters, iters) {
			t.Fatalf("workers=%d: RunOnline results or records differ from workers=1", workers)
		}
	}
	for _, rec := range baseIters {
		for _, r := range rec.Reqs {
			if r.PolicyNodes == 0 {
				t.Fatal("offline RunOnline granted a zero budget: it has no measured costs")
			}
		}
	}
}

// tickClock is an injected Config.Clock that advances a fixed tick per
// reading. Stepped serially, every request-step the engine times then
// costs one tick whatever its tree: the paper's §4.2 premise that
// verifying a tree costs about one decode, the regime where
// speculation pays and the zero-budget floor must stay off.
type tickClock struct {
	mu sync.Mutex
	t  time.Time // guarded by mu
}

func (c *tickClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

// TestPolicyModeSwitchLive: a burst that overfills the queue must drive
// throughput-mode iterations, the post-burst tail latency-mode ones,
// and the two mode counters must account for every policy iteration.
// Served where speculation pays (flat measured step cost), the live
// budget must be positive at the end.
func TestPolicyModeSwitchLive(t *testing.T) {
	llm, ssm, reqs := testModels(t, 10, 12)
	clk := &tickClock{t: time.Unix(0, 0)}
	eng, err := NewEngine(Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(), Seed: 5, MaxBatch: 2, QueueDepth: 16,
		Workers: 1, Clock: clk.now,
		Policy: &policy.Config{QueueHighWater: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel, done := startServe(t, eng)
	var resChans []<-chan Result
	for _, req := range reqs {
		_, rc, err := eng.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		resChans = append(resChans, rc)
	}
	for _, rc := range resChans {
		if res := mustResult(t, rc, 30*time.Second); res.Err != nil {
			t.Fatalf("live request failed: %v", res.Err)
		}
	}
	st := eng.ServeStats()
	if !st.PolicyEnabled {
		t.Fatal("PolicyEnabled false with Policy configured")
	}
	if st.PolicyThroughputIters == 0 {
		t.Fatalf("no throughput-mode iterations despite a %d-deep burst: %+v", len(reqs), st)
	}
	if st.PolicyLatencyIters == 0 {
		t.Fatalf("no latency-mode iterations despite a drained tail: %+v", st)
	}
	if st.PolicyLatencyIters+st.PolicyThroughputIters != st.Iterations {
		t.Fatalf("mode counters %d+%d do not account for %d iterations",
			st.PolicyLatencyIters, st.PolicyThroughputIters, st.Iterations)
	}
	if st.PolicySpecBudget <= 0 {
		t.Fatalf("current speculation budget %d, want positive while serving", st.PolicySpecBudget)
	}
	waitServeExit(t, cancel, done)
}

// TestPolicyEnsembleRunsAndPrunes: with a multi-SSM pool the policy
// merges per-SSM trees and prunes back to the decided budget; output
// stays lossless under greedy verification.
func TestPolicyEnsembleRunsAndPrunes(t *testing.T) {
	llm, ssm, reqs := testModels(t, 3, 24)
	ssm2, _, _ := testModels(t, 1, 1) // a second, differently-trained model
	inc, _ := run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 9}, reqs)
	pol, iters := run(t, Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm, ssm2},
		Sample: sampling.GreedyConfig(), Seed: 9,
		Policy: &policy.Config{Latency: tree.Budget{MaxNodes: 8, MaxDepth: 4, FanoutCap: 2}},
	}, reqs)
	for i := range inc {
		if !reflect.DeepEqual(inc[i].Output, pol[i].Output) {
			t.Fatalf("request %d: ensemble policy output differs from incremental", i)
		}
	}
	for i, rec := range iters {
		for j, r := range rec.Reqs {
			if r.TreeNodes > r.PolicyNodes {
				t.Fatalf("iter %d req %d: %d tree nodes exceed the %d budget after merge",
					i, j, r.TreeNodes, r.PolicyNodes)
			}
		}
	}
}

// TestPolicyConfigConflicts: Policy demands TreeSpec and a zero Shape,
// since its rule supplies every step's ceiling.
func TestPolicyConfigConflicts(t *testing.T) {
	llm, ssm, _ := testModels(t, 1, 4)
	if _, err := NewEngine(Config{
		Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(),
		Policy: &policy.Config{},
	}); err == nil {
		t.Fatal("Policy accepted with Incremental mode")
	}
	if _, err := NewEngine(Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(),
		Policy: &policy.Config{},
		Shape:  speculator.Shape{Budget: tree.Budget{MaxNodes: 8}},
	}); err == nil {
		t.Fatal("Policy accepted alongside a budget Shape")
	}
	if _, err := NewEngine(Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(),
		Policy: &policy.Config{},
		Shape:  speculator.Shape{Expansion: tree.PaperDefault()},
	}); err == nil {
		t.Fatal("Policy accepted alongside a static Shape")
	}
	if _, err := NewEngine(Config{
		Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
		Sample: sampling.GreedyConfig(),
		Policy: &policy.Config{Alpha: 2}, // invalid controller config
	}); err == nil {
		t.Fatal("invalid policy config accepted")
	}
}
