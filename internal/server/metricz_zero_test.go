package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"

	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/policy"
)

// getMetriczRaw fetches /metricz and returns the raw body. Reading raw
// bytes matters for the zero-sample regression: encoding/json refuses
// to encode NaN/Inf, so a division-by-zero-sample bug surfaces as a
// truncated (invalid) body, not as a decodable funny number.
func getMetriczRaw(t *testing.T, url string) []byte {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz status %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// requireFinite walks a decoded JSON value and fails on any non-finite
// number (belt-and-braces on top of the valid-JSON check).
func requireFinite(t *testing.T, path string, v any) {
	t.Helper()
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("%s is %v", path, x)
		}
	case map[string]any:
		for k, vv := range x {
			requireFinite(t, path+"."+k, vv)
		}
	case []any:
		for _, vv := range x {
			requireFinite(t, path, vv)
		}
	}
}

// TestMetriczFreshReplica: a replica that has served zero traffic —
// zero verifications, zero committed tokens, an empty recent window —
// must still emit valid, finite /metricz JSON. Every derived metric
// (mean_accepted_len, tokens_per_sec, tokens_per_sec_recent) divides by
// a sample count that is zero here.
func TestMetriczFreshReplica(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		env := newTestEnv(t, 0, nil)
		body := getMetriczRaw(t, env.http.URL)
		if !json.Valid(body) {
			t.Fatalf("fresh-replica /metricz is not valid JSON: %q", body)
		}
		var any map[string]any
		if err := json.Unmarshal(body, &any); err != nil {
			t.Fatal(err)
		}
		requireFinite(t, "metricz", any)
		var m metriczResponse
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		if m.MeanAcceptedLen != 0 || m.TokensPerSec != 0 || m.TokensPerSecRecent != 0 {
			t.Fatalf("zero-sample metrics nonzero on a fresh replica: %+v", m)
		}
	})

	t.Run("policy enabled", func(t *testing.T) {
		env := newTestEnv(t, 0, func(cfg *core.Config) {
			cfg.Mode = core.TreeSpec
			cfg.SSMs = []model.Model{&stubModel{vocab: 32}}
			cfg.Policy = &policy.Config{}
		})
		body := getMetriczRaw(t, env.http.URL)
		if !json.Valid(body) {
			t.Fatalf("fresh policy-replica /metricz is not valid JSON: %q", body)
		}
		var m metriczResponse
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		if m.Policy == nil {
			t.Fatal("policy block missing with Config.Policy set")
		}
		if m.Policy.LatencyIters != 0 || m.Policy.ThroughputIters != 0 ||
			m.Policy.SpecBudget != 0 || m.Policy.TrackedRequests != 0 ||
			m.Shape == nil || m.Shape.ZeroSteps != 0 || m.Shape.ZeroStepShare != 0 {
			t.Fatalf("fresh replica reports policy activity: %+v, shape %+v", m.Policy, m.Shape)
		}

		// After traffic the block must go live.
		if _, out := postGenerate(t, env.http.URL, `{"prompt":[2],"max_new_tokens":8}`); out.Error != "" {
			t.Fatalf("generate failed: %q", out.Error)
		}
		var m2 metriczResponse
		if err := json.Unmarshal(getMetriczRaw(t, env.http.URL), &m2); err != nil {
			t.Fatal(err)
		}
		if m2.Policy == nil || m2.Policy.LatencyIters+m2.Policy.ThroughputIters == 0 {
			t.Fatalf("policy iterations not counted after traffic: %+v", m2.Policy)
		}
		// The shape chooser's first step is a zero-budget step that
		// measures the decode cost, so the shape block's counter is
		// live after any traffic, and the share agrees with the
		// engine's counters.
		st := env.eng.ServeStats()
		if m2.Shape == nil || m2.Shape.ZeroSteps == 0 || m2.Shape.ZeroSteps != st.Shape.ZeroSteps {
			t.Fatalf("zero_steps %+v, engine counted %d (of %d steps)",
				m2.Shape, st.Shape.ZeroSteps, st.Shape.Steps)
		}
		if want := float64(st.Shape.ZeroSteps) / float64(st.Shape.Steps); m2.Shape.ZeroStepShare != want {
			t.Fatalf("zero_step_share %v, want %v", m2.Shape.ZeroStepShare, want)
		}
	})
}

// TestFleetMetriczPolicyZeroSteps: under a policy, the fleet rollup
// sums the replicas' zero-budget step counters (the shape block's) and
// recomputes the share from the sums.
func TestFleetMetriczPolicyZeroSteps(t *testing.T) {
	env, rt := newFleetEnvWith(t, 2, func(cfg *core.Config) {
		cfg.Mode = core.TreeSpec
		cfg.SSMs = []model.Model{&stubModel{vocab: 32}}
		cfg.Policy = &policy.Config{}
	})
	for _, body := range []string{`{"prompt":[2,3,4],"max_new_tokens":6}`, `{"prompt":[9],"max_new_tokens":6}`} {
		if _, out := postGenerate(t, env.http.URL, body); out.Error != "" {
			t.Fatalf("generate failed: %q", out.Error)
		}
	}
	fs := rt.FleetStats()
	var zero, steps uint64
	for _, r := range fs.Replicas {
		zero += r.Shape.ZeroSteps
		steps += r.Shape.Steps
	}
	if zero == 0 || fs.Total.Shape.ZeroSteps != zero || fs.Total.Shape.Steps != steps {
		t.Fatalf("fleet zero/shape steps %d/%d, replicas sum to %d/%d",
			fs.Total.Shape.ZeroSteps, fs.Total.Shape.Steps, zero, steps)
	}
	var m metriczResponse
	if err := json.Unmarshal(getMetriczRaw(t, env.http.URL), &m); err != nil {
		t.Fatal(err)
	}
	if m.Policy == nil || m.Shape == nil || m.Shape.ZeroSteps != zero ||
		m.Shape.ZeroStepShare != float64(zero)/float64(steps) {
		t.Fatalf("fleet policy block %+v, shape block %+v, want %d zero steps of %d", m.Policy, m.Shape, zero, steps)
	}
}

// TestFleetMetriczZeroTraffic: the fleet rollup recomputes
// mean_accepted_len from summed counters — with zero verifications
// across every replica it must stay 0, and the whole rollup must be
// valid finite JSON.
func TestFleetMetriczZeroTraffic(t *testing.T) {
	env, rt := newFleetEnv(t, 2)
	body := getMetriczRaw(t, env.http.URL)
	if !json.Valid(body) {
		t.Fatalf("zero-traffic fleet /metricz is not valid JSON: %q", body)
	}
	var any map[string]any
	if err := json.Unmarshal(body, &any); err != nil {
		t.Fatal(err)
	}
	requireFinite(t, "fleet", any)
	fs := rt.FleetStats()
	if fs.Total.SpecVerifications != 0 || fs.Total.MeanAcceptedLen != 0 {
		t.Fatalf("zero-traffic fleet reports accept length: %+v", fs)
	}
	var m metriczResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.MeanAcceptedLen != 0 || m.TokensPerSecRecent != 0 {
		t.Fatalf("zero-sample fleet rollup nonzero: %+v", m)
	}
	if m.Policy != nil {
		t.Fatalf("policy block present on a policy-less fleet: %+v", m.Policy)
	}
}
