package server

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/policy"
)

// metriczKeyPaths lists every key path of a decoded /metricz body:
// nested objects join with ".", and an array of objects contributes
// its elements' keys under "name[]".
func metriczKeyPaths(prefix string, v any, into map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, vv := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			into[p] = true
			metriczKeyPaths(p, vv, into)
		}
	case []any:
		for _, vv := range x {
			metriczKeyPaths(prefix+"[]", vv, into)
		}
	}
}

// engineMetriczKeys is the field set of one engine's /metricz view with
// the prefix cache on; policyKeys is the policy block's, present only
// with Config.Policy.
var (
	engineMetriczKeys = []string{
		"active_requests", "canceled", "completed", "draining",
		"iterations", "kv_bytes_active", "max_batch", "mean_accepted_len",
		"queue_cap", "queue_depth", "recent_window_seconds", "rejected",
		"serving", "spec_verifications", "submitted", "tokens_committed",
		"tokens_per_sec", "tokens_per_sec_recent", "uptime_seconds",
		"latency_ms", "latency_ms.n", "latency_ms.mean", "latency_ms.p50",
		"latency_ms.p90", "latency_ms.p99", "latency_ms.max",
		"queue_delay_ms", "queue_delay_ms.n", "queue_delay_ms.mean",
		"queue_delay_ms.p50", "queue_delay_ms.p90", "queue_delay_ms.p99",
		"queue_delay_ms.max",
		"ttft_ms", "ttft_ms.n", "ttft_ms.mean", "ttft_ms.p50", "ttft_ms.p90",
		"ttft_ms.p99", "ttft_ms.max",
		"prefix_cache", "prefix_cache.hits", "prefix_cache.misses",
		"prefix_cache.hit_rate", "prefix_cache.inserts",
		"prefix_cache.evictions", "prefix_cache.tokens_shared",
		"prefix_cache.bytes_shared", "prefix_cache.bytes",
		"prefix_cache.max_bytes", "prefix_cache.nodes", "prefix_cache.tails",
		"prefix_cache.pinned",
		"shape", "shape.steps", "shape.zero_steps", "shape.zero_step_share",
		"shape.probes", "shape.steps_by_depth", "shape.zero_cost_us",
		"shape.cost_intercept_us", "shape.cost_per_node_us",
		"shape.cost_per_level_us", "shape.tracked_requests",
	}
	policyKeys = []string{
		"policy", "policy.latency_iters", "policy.throughput_iters",
		"policy.spec_budget", "policy.tracked_requests",
	}
	fleetKeys = []string{
		"router", "router.policy", "router.replicas", "router.live",
		"router.ring_replicas", "router.rerouted", "router.spilled",
		"router.shed",
		"replicas", "replicas[].id", "replicas[].state", "replicas[].in_flight",
	}
)

// TestMetriczFieldSet pins the key paths /metricz reports, from a single
// engine and from a two-replica fleet, each with and without
// Config.Policy, after one request has been served: a change to the
// rollup or to the stats behind it must not drop or add a field unseen.
func TestMetriczFieldSet(t *testing.T) {
	for _, withPolicy := range []bool{false, true} {
		mutate := func(cfg *core.Config) {
			cfg.Mode = core.TreeSpec
			cfg.SSMs = []model.Model{&stubModel{vocab: 32}}
			cfg.PrefixCacheBytes = 1 << 20
			if withPolicy {
				cfg.Policy = &policy.Config{}
			}
		}
		want := append([]string(nil), engineMetriczKeys...)
		if withPolicy {
			want = append(want, policyKeys...)
		}
		single := newTestEnv(t, 0, mutate)
		fleet, _ := newFleetEnvWith(t, 2, mutate)
		fleetWant := append(append([]string(nil), want...), fleetKeys...)
		for _, k := range want {
			fleetWant = append(fleetWant, "replicas[]."+k)
		}
		for _, tc := range []struct {
			name string
			url  string
			want []string
		}{
			{"engine", single.http.URL, want},
			{"fleet", fleet.http.URL, fleetWant},
		} {
			if _, out := postGenerate(t, tc.url, `{"prompt":[2,3],"max_new_tokens":6}`); out.Error != "" {
				t.Fatalf("%s: generate failed: %q", tc.name, out.Error)
			}
			var body map[string]any
			if err := json.Unmarshal(getMetriczRaw(t, tc.url), &body); err != nil {
				t.Fatal(err)
			}
			keys := map[string]bool{}
			metriczKeyPaths("", body, keys)
			got := make([]string, 0, len(keys))
			for k := range keys {
				got = append(got, k)
			}
			sort.Strings(got)
			w := append([]string(nil), tc.want...)
			sort.Strings(w)
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("%s (policy %v) /metricz keys:\n got %s\nwant %s", tc.name, withPolicy,
					strings.Join(got, " "), strings.Join(w, " "))
			}
		}
	}
}
