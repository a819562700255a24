package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/router"
	"specinfer/internal/sampling"
	"specinfer/internal/server"
	"specinfer/internal/tensor"
	"specinfer/internal/transformer"
	"specinfer/internal/workload"
)

// The drafter is distilled from the LLM on Markov prompts under fixed
// seeds, so every run serves the same aligned pair whatever the workload
// seed is.
const (
	distillSteps     = 300
	distillPromptLen = 16
	distillCont      = 16
	distillSeed      = 4242
	distillLR        = 3e-3
)

// markov is the prompt source of every workload and of distillation.
// Alpaca's vocabulary (192 tokens) fits inside the perf models' 256.
func markov() *workload.Markov {
	return workload.NewMarkov(workload.DatasetByName("Alpaca"))
}

// buildModels builds the perf-LLM geometry of internal/bench and the
// perf-SSM drafter, distilled from it.
func buildModels() (llm, ssm *transformer.Model) {
	llm = transformer.New(transformer.Config{
		Name: "perf-LLM", Vocab: 256, Hidden: 64, Heads: 4, FFN: 160, Layers: 4, Seed: 61,
	})
	ssm = transformer.New(transformer.Config{
		Name: "perf-SSM", Vocab: 256, Hidden: 32, Heads: 4, FFN: 64, Layers: 2, Seed: 62,
	})
	m := markov()
	rng := tensor.NewRNG(distillSeed)
	transformer.Distill(transformer.NewTrainer(ssm, distillLR), llm,
		func() []model.Token { return m.Generate(rng, distillPromptLen) },
		distillCont, distillSteps, distillSeed)
	return llm, ssm
}

// front is how the load generator reaches the engines.
type front int

const (
	viaHTTP   front = iota // server.New over one engine, loopback HTTP
	viaRouter              // router.Router.Submit over a replica fleet
	viaEngine              // core.Engine.Submit on one engine
)

// engineConfig is the per-replica engine configuration of a workload.
func engineConfig(w *workloadSpec, llm, ssm model.Model) core.Config {
	cfg := core.Config{
		Mode: w.mode, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 17,
		MaxBatch: 8, Workers: w.workers, QueueDepth: 256,
		PrefixCacheBytes: 64 << 20,
	}
	if w.mode != core.Incremental {
		cfg.SSMs = []model.Model{ssm}
	}
	if w.stochastic {
		cfg.Sample = sampling.Config{Mode: sampling.Stochastic, Temperature: 0.7}
		cfg.Verifier = core.VerifierMSS
		cfg.Policy = &policy.Config{}
	}
	return cfg
}

// stack is one running serving stack: its engines, the front the load
// reaches them through, and the goroutine serving them.
type stack struct {
	engines []*core.Engine
	rt      *router.Router // viaRouter only
	url     string         // viaHTTP only
	cancel  context.CancelFunc
	done    chan error
}

// readyTimeout bounds how long a stack may take to come up.
const readyTimeout = 20 * time.Second

// startStack builds the workload's engines over the given models, starts
// serving, and returns once the front accepts requests.
func startStack(w *workloadSpec, llm, ssm model.Model) (*stack, error) {
	st := &stack{done: make(chan error, 1)}
	for i := 0; i < w.replicas; i++ {
		eng, err := core.NewEngine(engineConfig(w, llm, ssm))
		if err != nil {
			return nil, fmt.Errorf("build engine: %w", err)
		}
		st.engines = append(st.engines, eng)
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.cancel = cancel
	var ready func() bool
	switch w.front {
	case viaHTTP:
		srv, err := server.New(server.Config{Engine: st.engines[0]})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("build server: %w", err)
		}
		go func() { st.done <- srv.Run(ctx, "127.0.0.1:0") }()
		probe := &http.Client{Timeout: time.Second}
		defer probe.CloseIdleConnections()
		ready = func() bool {
			if srv.Addr() == "" {
				return false
			}
			st.url = "http://" + srv.Addr()
			resp, err := probe.Get(st.url + "/healthz")
			if err != nil {
				return false
			}
			_ = resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		}
	case viaRouter:
		rt, err := router.New(router.Config{Replicas: st.engines, Policy: router.PrefixAffinity})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("build router: %w", err)
		}
		st.rt = rt
		go func() { st.done <- rt.Run(ctx) }()
		ready = func() bool { return rt.FleetStats().Live == w.replicas }
	case viaEngine:
		go func() { st.done <- st.engines[0].Serve(ctx) }()
		ready = st.engines[0].Serving
	}
	deadline := time.Now().Add(readyTimeout)
	for !ready() {
		select {
		case err := <-st.done:
			cancel()
			return nil, fmt.Errorf("serving stopped before it was ready: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			_ = st.stop()
			return nil, errors.New("serving stack not ready in time")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return st, nil
}

// stop drains the stack and waits for its serving goroutine to return.
func (st *stack) stop() error {
	st.cancel()
	if err := <-st.done; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// submit places a request in process (viaRouter, viaEngine).
func (st *stack) submit(ctx context.Context, req workload.Request) (<-chan model.Token, <-chan core.Result, error) {
	if st.rt != nil {
		return st.rt.Submit(ctx, req)
	}
	return st.engines[0].Submit(ctx, req)
}

// counters is a snapshot of the serving layers' cumulative counters,
// summed over replicas. Phases report differences of two snapshots.
type counters struct {
	iterations                            uint64
	verifications, accepted               uint64
	polLatency, polThroughput             uint64
	hits, misses, tokensShared, evictions uint64
	prefixBytes                           int64
	rerouted, shed                        uint64
	submitted                             []uint64 // per replica
}

func (st *stack) counters() counters {
	var c counters
	for _, eng := range st.engines {
		s := eng.ServeStats()
		c.iterations += s.Iterations
		c.verifications += s.SpecVerifications
		c.accepted += s.SpecTokensAccepted
		c.polLatency += s.PolicyLatencyIters
		c.polThroughput += s.PolicyThroughputIters
		c.hits += s.PrefixCache.Hits
		c.misses += s.PrefixCache.Misses
		c.tokensShared += s.PrefixCache.TokensShared
		c.evictions += s.PrefixCache.Evictions
		c.prefixBytes += s.PrefixCache.Bytes
		c.submitted = append(c.submitted, s.Submitted)
	}
	if st.rt != nil {
		fs := st.rt.FleetStats()
		c.rerouted, c.shed = fs.Rerouted, fs.Shed
	}
	return c
}

// trackedRequests is the policy controller's live per-request state,
// summed over replicas; read after drain it must be 0.
func (st *stack) trackedRequests() int {
	n := 0
	for _, eng := range st.engines {
		if ps, ok := eng.PolicyStats(); ok {
			n += ps.TrackedRequests
		}
	}
	return n
}
