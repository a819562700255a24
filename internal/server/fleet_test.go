package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/router"
	"specinfer/internal/sampling"
)

// newFleetEnv builds an n-replica router-backed server over independent
// stubModel instances.
func newFleetEnv(t *testing.T, n int) (*testEnv, *router.Router) {
	t.Helper()
	return newFleetEnvWith(t, n, nil)
}

// newFleetEnvWith is newFleetEnv with every replica's engine config
// passed through mutate first.
func newFleetEnvWith(t *testing.T, n int, mutate func(*core.Config)) (*testEnv, *router.Router) {
	t.Helper()
	engs := make([]*core.Engine, n)
	for i := range engs {
		cfg := core.Config{
			Mode: core.Incremental, LLM: &stubModel{vocab: 32},
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
		engs[i] = eng
	}
	rt, err := router.New(router.Config{Replicas: engs})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Router: rt, MaxNewTokens: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := srv.StartEngine(ctx)
	waitFor(t, func() bool { return rt.FleetStats().Live == n })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("fleet Run returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("fleet did not drain")
		}
	})
	return &testEnv{srv: srv, http: ts}, rt
}

// TestFleetGenerateAndMetricz: the router-backed server serves
// /v1/generate, and /metricz reports the fleet rollup — the same
// top-level aggregate fields as a single engine, plus the router block
// and per-replica array.
func TestFleetGenerateAndMetricz(t *testing.T) {
	env, _ := newFleetEnv(t, 2)

	// Two requests with the SAME prompt must land on the same replica
	// (prefix affinity), a third with a different prompt may go
	// anywhere.
	for i := 0; i < 2; i++ {
		if _, out := postGenerate(t, env.http.URL, `{"prompt":[2,3,4],"max_new_tokens":4}`); out.Error != "" {
			t.Fatalf("generate failed: %q", out.Error)
		}
	}
	if _, out := postGenerate(t, env.http.URL, `{"prompt":[9],"max_new_tokens":2}`); out.Error != "" {
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
		t.Fatalf("fleet metricz state wrong: %+v", m)
	}
	if m.Submitted != 3 || m.Completed != 3 || m.TokensCommitted != 10 {
		t.Fatalf("fleet counters wrong: submitted %d completed %d tokens %d",
			m.Submitted, m.Completed, m.TokensCommitted)
	}
	if m.Router == nil {
		t.Fatal("fleet metricz missing router block")
	}
	if m.Router.Policy != "prefix-affinity" || m.Router.Replicas != 2 || m.Router.Live != 2 {
		t.Fatalf("router block wrong: %+v", m.Router)
	}
	if len(m.Replicas) != 2 {
		t.Fatalf("replicas array has %d entries, want 2", len(m.Replicas))
	}
	var perReplica uint64
	sameReplica := false
	for _, rm := range m.Replicas {
		perReplica += rm.Completed
		if rm.Completed >= 2 {
			sameReplica = true // the two same-prompt requests stuck together
		}
		if rm.State != "live" {
			t.Fatalf("replica %d state %q, want live", rm.ID, rm.State)
		}
	}
	if perReplica != 3 {
		t.Fatalf("per-replica completions sum to %d, want 3", perReplica)
	}
	if !sameReplica {
		t.Fatal("same-prompt requests split across replicas under prefix affinity")
	}
	if m.LatencyMs.N != 3 {
		t.Fatalf("pooled latency N %d, want 3", m.LatencyMs.N)
	}
	if m.TTFTMs.N != 3 {
		t.Fatalf("pooled ttft N %d, want 3", m.TTFTMs.N)
	}
	// MaxBatch and QueueCap roll up as fleet capacity sums.
	if m.MaxBatch != 4 || m.QueueCap != 8 {
		t.Fatalf("fleet capacity rollup wrong: %+v", m)
	}
}

// TestFleetHealthzFanIn: /healthz reports per-replica states, stays 200
// (degraded) while any replica is live, and turns 503 only when none
// is.
func TestFleetHealthzFanIn(t *testing.T) {
	env, rt := newFleetEnv(t, 2)

	getHealth := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(env.http.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := getHealth()
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthy fleet: %d %v", code, body)
	}
	reps, ok := body["replicas"].([]any)
	if !ok || len(reps) != 2 {
		t.Fatalf("healthz missing per-replica fan-in: %v", body)
	}

	if err := rt.DrainReplica(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rt.FleetStats().Live == 1 })
	code, body = getHealth()
	if code != http.StatusOK || body["status"] != "degraded" {
		t.Fatalf("degraded fleet: %d %v", code, body)
	}

	if err := rt.DrainReplica(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rt.FleetStats().Live == 0 })
	code, body = getHealth()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("dead fleet healthz %d %v, want 503", code, body)
	}
}

// TestNewRejectsAmbiguousBackends: exactly one of Engine and Router.
func TestNewRejectsAmbiguousBackends(t *testing.T) {
	eng, err := core.NewEngine(core.Config{
		Mode: core.Incremental, LLM: &stubModel{vocab: 8},
		Sample: sampling.GreedyConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(router.Config{Replicas: []*core.Engine{eng}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Engine: eng, Router: rt}); err == nil {
		t.Fatal("New accepted both Engine and Router")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted neither Engine nor Router")
	}
}
