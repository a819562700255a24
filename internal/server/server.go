// Package server exposes a live core.Engine — or a router.Router
// fronting a fleet of engine replicas — over HTTP: the JSON API of the
// specinferd daemon. It is a thin, dependency-free (net/http only)
// frontend over Engine.Serve/Submit and Router.Run/Submit:
//
//	POST /v1/generate  — submit a request; streams NDJSON token chunks
//	                     when "stream" is true, else returns one JSON
//	                     result. 429 under backpressure (fleet mode:
//	                     every replica's queue full), 503 while
//	                     draining or stopped.
//	GET  /healthz      — 200 while accepting, 503 while draining/down.
//	                     Fleet mode is healthy while at least one
//	                     replica is live and reports per-replica states.
//	GET  /metricz      — live ServeStats snapshot (queue depth, active
//	                     slots, tokens/sec, latency, queue-delay and
//	                     time-to-first-token quantiles, KV bytes). Fleet mode keeps the same top-level
//	                     aggregate fields (quantiles pooled exactly
//	                     across replicas via metrics.Merge) and adds a
//	                     "router" block plus a per-replica "replicas"
//	                     array.
//	/debug/pprof/...   — net/http/pprof profiling endpoints.
//
// Client disconnects propagate through the request context into the
// engine, which retires the request at the next iteration boundary and
// reclaims its batching slot and KV cache.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/metrics"
	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/router"
	"specinfer/internal/workload"
)

// Tokenizer optionally renders token ids as text in responses.
type Tokenizer interface {
	Decode(ids []int) string
}

// Config configures a Server.
type Config struct {
	// Engine is the serving engine; Run starts its Serve loop. Exactly
	// one of Engine and Router must be set.
	Engine *core.Engine
	// Router, when set instead of Engine, serves a multi-replica fleet:
	// Run starts the router's fleet loop, /v1/generate places requests
	// through prefix-affinity routing, and /healthz and /metricz report
	// fleet-wide rollups.
	Router *router.Router
	// Tokenizer, when non-nil, adds a "text" field to generate
	// responses.
	Tokenizer Tokenizer
	// MaxNewTokens caps the per-request generation budget accepted over
	// HTTP (requests asking for more are clamped). Defaults to 512.
	MaxNewTokens int
	// ShutdownTimeout bounds the HTTP server's graceful shutdown after
	// the engine has drained. Defaults to 5s.
	ShutdownTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxNewTokens == 0 {
		c.MaxNewTokens = 512
	}
	if c.ShutdownTimeout == 0 {
		c.ShutdownTimeout = 5 * time.Second
	}
	return c
}

// Server is the HTTP frontend of one serving engine or one fleet
// router.
type Server struct {
	cfg    Config
	eng    *core.Engine   // single-engine mode (nil in fleet mode)
	rt     *router.Router // fleet mode (nil in single-engine mode)
	mux    *http.ServeMux
	nextID atomic.Int64
	// draining flips when Run's context is cancelled, turning /healthz
	// and /v1/generate away before the engine finishes draining.
	draining atomic.Bool
	// addr holds the listener's bound address once Run is up.
	addr atomic.Value // string
}

// Addr returns the address Run's listener is bound to, or "" before the
// listener is up.
func (s *Server) Addr() string {
	if a, ok := s.addr.Load().(string); ok {
		return a
	}
	return ""
}

// New validates the configuration and builds the handler. The serving
// loop (engine or fleet) is started by Run; for tests, StartEngine can
// run it on a caller-owned context instead.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if (cfg.Engine == nil) == (cfg.Router == nil) {
		return nil, fmt.Errorf("server: exactly one of Config.Engine and Config.Router is required")
	}
	s := &Server{cfg: cfg, eng: cfg.Engine, rt: cfg.Router, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Handler returns the HTTP handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Run serves HTTP on addr until ctx is cancelled, then drains: the
// engine stops admitting and finishes in-flight requests (bounded by
// the engine's DrainTimeout), after which the HTTP listener shuts down
// gracefully. Returns nil on a clean drain. The bound address (useful
// with ":0") is available from Addr once the listener is up.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.addr.Store(ln.Addr().String())

	//lint:ignore ctxflow the engine must outlive ctx for graceful drain; Run sequences engCancel after draining.Store itself
	engCtx, engCancel := context.WithCancel(context.Background())
	defer engCancel()
	engDone := make(chan error, 1)
	go func() { engDone <- s.serveBackend(engCtx) }()

	httpSrv := &http.Server{Handler: s.mux}
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Serve(ln) }()

	select {
	case err := <-httpDone:
		// Listener died (port in use, ...): bring the engine down too.
		engCancel()
		<-engDone
		return fmt.Errorf("server: http listener: %w", err)
	case <-ctx.Done():
	}

	// Drain: refuse new work at the HTTP edge, let the engine finish
	// in-flight requests, then close the listener under a bounded
	// graceful shutdown (in-flight handlers are still streaming their
	// final bytes).
	s.draining.Store(true)
	engCancel()
	if err := <-engDone; err != nil {
		return fmt.Errorf("server: engine drain: %w", err)
	}
	//lint:ignore ctxflow ctx is already cancelled here; the shutdown deadline cannot derive from a dead context
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("server: http shutdown: %w", err)
	}
	<-httpDone // always http.ErrServerClosed after Shutdown
	return nil
}

// StartEngine runs the serving loop — the engine's Serve or the fleet
// router's Run — on ctx (test hook for using Handler with httptest
// instead of Run). The returned channel yields the loop's result.
func (s *Server) StartEngine(ctx context.Context) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.serveBackend(ctx) }()
	return done
}

// serveBackend runs whichever serving loop the server fronts.
func (s *Server) serveBackend(ctx context.Context) error {
	if s.rt != nil {
		return s.rt.Run(ctx)
	}
	return s.eng.Serve(ctx)
}

// submit places a request on the engine or the fleet.
func (s *Server) submit(ctx context.Context, req workload.Request) (<-chan model.Token, <-chan core.Result, error) {
	if s.rt != nil {
		return s.rt.Submit(ctx, req)
	}
	return s.eng.Submit(ctx, req)
}

// vocabSize reads the shared vocabulary bound (fleet replicas are
// built from the same core.Config).
func (s *Server) vocabSize() int {
	if s.rt != nil {
		return s.rt.Replica(0).Config().LLM.VocabSize()
	}
	return s.eng.Config().LLM.VocabSize()
}

// SetDraining flips the HTTP edge into drain mode (Run does this
// automatically; exposed for tests).
func (s *Server) SetDraining() { s.draining.Store(true) }

// generateRequest is the POST /v1/generate body.
type generateRequest struct {
	// Prompt is the prompt as token ids; must be non-empty.
	Prompt []model.Token `json:"prompt"`
	// MaxNewTokens bounds the generation; clamped to the server cap.
	MaxNewTokens int `json:"max_new_tokens"`
	// Stream selects NDJSON token streaming over a single JSON result.
	Stream bool `json:"stream,omitempty"`
	// TimeoutMs optionally bounds the request's wall-clock service time.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// generateResult is the terminal JSON object of both response shapes.
type generateResult struct {
	ID           int           `json:"id"`
	Tokens       []model.Token `json:"tokens"`
	Text         string        `json:"text,omitempty"`
	Steps        int           `json:"steps"`
	AvgCommitted float64       `json:"avg_committed"`
	QueueDelayMs float64       `json:"queue_delay_ms"`
	LatencyMs    float64       `json:"latency_ms"`
	Error        string        `json:"error,omitempty"`
}

// streamChunk is one NDJSON line of a streaming response.
type streamChunk struct {
	Tokens []model.Token   `json:"tokens,omitempty"`
	Done   bool            `json:"done,omitempty"`
	Result *generateResult `json:"result,omitempty"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, core.ErrDraining.Error())
		return
	}
	var req generateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return
	}
	if len(req.Prompt) == 0 {
		httpError(w, http.StatusBadRequest, "prompt must be a non-empty array of token ids")
		return
	}
	vocab := s.vocabSize()
	for _, tok := range req.Prompt {
		if tok < 0 || tok >= vocab {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("prompt token %d outside vocabulary [0, %d)", tok, vocab))
			return
		}
	}
	if req.MaxNewTokens <= 0 || req.MaxNewTokens > s.cfg.MaxNewTokens {
		req.MaxNewTokens = s.cfg.MaxNewTokens
	}

	// The request context carries the client disconnect: the engine
	// retires the request and reclaims its slot and KV cache at the
	// next iteration boundary.
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}

	id := int(s.nextID.Add(1))
	tokens, results, err := s.submit(ctx, workload.Request{
		ID:        id,
		Prompt:    req.Prompt,
		MaxNewTok: req.MaxNewTokens,
	})
	switch {
	case err == nil:
	case errors.Is(err, core.ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, core.ErrDraining), errors.Is(err, core.ErrNotServing):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	default:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	if req.Stream {
		s.streamResponse(w, tokens, results)
		return
	}
	res := <-results
	out := s.renderResult(res)
	status := http.StatusOK
	if res.Err != nil {
		// Deadline expiry still reports the partial generation; other
		// retirement reasons surface as a gateway-side abort.
		if errors.Is(res.Err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		} else {
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, out)
}

// streamResponse writes NDJSON: one {"tokens":[...]} chunk per batch of
// committed tokens, then a terminal {"done":true,"result":{...}} line.
func (s *Server) streamResponse(w http.ResponseWriter, tokens <-chan model.Token, results <-chan core.Result) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Flush the headers now so a queued request's client sees the 200
	// before the first token commits.
	flush()
	for tok := range tokens {
		chunk := streamChunk{Tokens: []model.Token{tok}}
		// Coalesce whatever else the iteration already committed.
	coalesce:
		for {
			select {
			case more, ok := <-tokens:
				if !ok {
					break coalesce
				}
				chunk.Tokens = append(chunk.Tokens, more)
			default:
				break coalesce
			}
		}
		if err := enc.Encode(chunk); err != nil {
			return // client went away; engine retires via ctx
		}
		flush()
	}
	res := <-results
	out := s.renderResult(res)
	if err := enc.Encode(streamChunk{Done: true, Result: &out}); err != nil {
		return
	}
	flush()
}

func (s *Server) renderResult(res core.Result) generateResult {
	out := generateResult{
		ID:           res.ID,
		Tokens:       res.Output,
		Steps:        res.Steps,
		AvgCommitted: res.AvgCommitted(),
		QueueDelayMs: float64(res.QueueDelay) / float64(time.Millisecond),
		LatencyMs:    float64(res.Latency) / float64(time.Millisecond),
	}
	if out.Tokens == nil {
		out.Tokens = []model.Token{}
	}
	if res.Err != nil {
		out.Error = res.Err.Error()
	}
	if s.cfg.Tokenizer != nil {
		out.Text = s.cfg.Tokenizer.Decode(res.Output)
	}
	return out
}

// replicaHealth is one replica's entry in the fleet /healthz fan-in.
type replicaHealth struct {
	ID    int    `json:"id"`
	State string `json:"state"`
	Err   string `json:"err,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.rt != nil {
		fs := s.rt.FleetStats()
		reps := make([]replicaHealth, 0, len(fs.Replicas))
		for _, rs := range fs.Replicas {
			reps = append(reps, replicaHealth{ID: rs.ID, State: rs.State, Err: rs.Err})
		}
		status, text := http.StatusOK, "ok"
		// The fleet stays healthy while any replica accepts work; it
		// reports degraded (but still 200) when some replicas are out.
		switch {
		case s.draining.Load() || fs.Live == 0:
			status, text = http.StatusServiceUnavailable, "draining"
		case fs.Live < len(fs.Replicas):
			text = "degraded"
		}
		writeJSON(w, status, map[string]any{"status": text, "live": fs.Live, "replicas": reps})
		return
	}
	if s.draining.Load() || !s.eng.Serving() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metriczResponse is the GET /metricz body.
type metriczResponse struct {
	Serving         bool   `json:"serving"`
	Draining        bool   `json:"draining"`
	QueueDepth      int    `json:"queue_depth"`
	QueueCap        int    `json:"queue_cap"`
	ActiveRequests  int    `json:"active_requests"`
	MaxBatch        int    `json:"max_batch"`
	Submitted       uint64 `json:"submitted"`
	Completed       uint64 `json:"completed"`
	Canceled        uint64 `json:"canceled"`
	Rejected        uint64 `json:"rejected"`
	Iterations      uint64 `json:"iterations"`
	TokensCommitted uint64 `json:"tokens_committed"`
	// SpecVerifications counts speculative verification passes and
	// MeanAcceptedLen the mean speculated tokens accepted per pass — the
	// live view of the verifier's accept length (core.Config.Verifier).
	SpecVerifications uint64  `json:"spec_verifications"`
	MeanAcceptedLen   float64 `json:"mean_accepted_len"`
	TokensPerSec      float64 `json:"tokens_per_sec"`
	// TokensPerSecRecent is the sliding-window throughput over the last
	// iteration boundaries (RecentWindowSeconds wide): the "current"
	// rate, where tokens_per_sec is the lifetime average that goes
	// stale across idle periods.
	TokensPerSecRecent  float64         `json:"tokens_per_sec_recent"`
	RecentWindowSeconds float64         `json:"recent_window_seconds"`
	UptimeSeconds       float64         `json:"uptime_seconds"`
	KVBytesActive       int64           `json:"kv_bytes_active"`
	LatencyMs           latencyQuantile `json:"latency_ms"`
	QueueDelayMs        latencyQuantile `json:"queue_delay_ms"`
	// TTFTMs is the time to first token: Submit to the first streamed
	// token, over the most recent requests that streamed one.
	TTFTMs latencyQuantile `json:"ttft_ms"`
	// PrefixCache is present when the engine's cross-request prefix KV
	// cache is enabled (core.Config.PrefixCacheBytes). In fleet mode it
	// is the sum over the replicas' private caches.
	PrefixCache *prefixCacheMetrics `json:"prefix_cache,omitempty"`
	// Policy is present when the per-iteration speculation policy is
	// enabled (core.Config.Policy). In fleet mode it sums over the
	// replicas.
	Policy *policyMetrics `json:"policy,omitempty"`
	// Shape is present when the engine prices its step shapes (every
	// speculative mode, with or without a policy): how many steps it
	// decoded incrementally and how many drafted each depth, and the
	// measured costs it priced them with. In fleet mode the counts sum
	// over replicas and the costs are step-weighted means.
	Shape *shapeMetrics `json:"shape,omitempty"`
	// Router and Replicas are present in fleet mode only: the routing
	// rollup and the per-replica breakdown. The top-level fields above
	// stay aggregate (sums; quantiles pooled via metrics.Merge), so
	// dashboards work unchanged across single-engine and fleet
	// deployments.
	Router   *routerMetrics   `json:"router,omitempty"`
	Replicas []replicaMetrics `json:"replicas,omitempty"`
}

// routerMetrics is the /metricz view of the fleet routing state.
type routerMetrics struct {
	Policy string `json:"policy"`
	// Replicas is the configured fleet size; Live counts replicas
	// accepting work; RingReplicas counts replicas still owning
	// consistent-hash arcs (drained/failed replicas own none).
	Replicas     int `json:"replicas"`
	Live         int `json:"live"`
	RingReplicas int `json:"ring_replicas"`
	// Rerouted counts requests that landed off their first-choice
	// replica by fallback; Spilled counts requests placed on an idle
	// replica as guests; Shed counts requests refused with every queue
	// full.
	Rerouted uint64 `json:"rerouted"`
	Spilled  uint64 `json:"spilled"`
	Shed     uint64 `json:"shed"`
}

// replicaMetrics is one replica's /metricz entry: its lifecycle state
// plus the standard per-engine metrics, inlined.
type replicaMetrics struct {
	ID    int    `json:"id"`
	State string `json:"state"`
	Err   string `json:"err,omitempty"`
	// InFlight counts the router's unsettled requests on the replica.
	InFlight int `json:"in_flight"`
	metriczResponse
}

// policyMetrics is the /metricz view of the speculation policy layer:
// how many iterations each mode decided, the node budget the last
// iteration granted across its batch, how many per-request acceptance
// histories the controller currently holds (bounded by the active batch
// when retirement is working). The zero steps the shape chooser takes
// under the policy are the shape block's.
type policyMetrics struct {
	LatencyIters    uint64 `json:"latency_iters"`
	ThroughputIters uint64 `json:"throughput_iters"`
	SpecBudget      int    `json:"spec_budget"`
	TrackedRequests int    `json:"tracked_requests"`
}

// shapeMetrics is the /metricz view of the shape chooser
// (policy.ChooserStats): request-steps decided, the zero (incremental)
// ones and their share, ceiling probes, steps by chosen depth
// (steps_by_depth[d-1] drafted d levels), the zero-step cost c₀ and
// the speculative step-cost fit ĉ(n, d) = intercept + per_node·n +
// per_level·d, in microseconds, and the requests with live history.
type shapeMetrics struct {
	Steps           uint64   `json:"steps"`
	ZeroSteps       uint64   `json:"zero_steps"`
	ZeroStepShare   float64  `json:"zero_step_share"`
	Probes          uint64   `json:"probes"`
	StepsByDepth    []uint64 `json:"steps_by_depth"`
	ZeroCostUs      float64  `json:"zero_cost_us"`
	CostInterceptUs float64  `json:"cost_intercept_us"`
	CostPerNodeUs   float64  `json:"cost_per_node_us"`
	CostPerLevelUs  float64  `json:"cost_per_level_us"`
	TrackedRequests int      `json:"tracked_requests"`
}

func shapeToMetricz(s policy.ChooserStats) *shapeMetrics {
	const us = 1e6 // the chooser's costs are in seconds
	m := &shapeMetrics{
		Steps: s.Steps, ZeroSteps: s.ZeroSteps,
		Probes: s.Probes, StepsByDepth: append([]uint64{}, s.StepsByDepth...),
		ZeroCostUs: s.ZeroCost * us, CostInterceptUs: s.Cost.Intercept * us,
		CostPerNodeUs: s.Cost.PerNode * us, CostPerLevelUs: s.Cost.PerLevel * us,
		TrackedRequests: s.TrackedRequests,
	}
	if s.Steps > 0 {
		m.ZeroStepShare = float64(s.ZeroSteps) / float64(s.Steps)
	}
	return m
}

// prefixCacheMetrics is the /metricz view of kvcache.PrefixStats.
type prefixCacheMetrics struct {
	Hits         uint64  `json:"hits"`
	Misses       uint64  `json:"misses"`
	HitRate      float64 `json:"hit_rate"`
	Inserts      uint64  `json:"inserts"`
	Evictions    uint64  `json:"evictions"`
	TokensShared uint64  `json:"tokens_shared"`
	BytesShared  uint64  `json:"bytes_shared"`
	Bytes        int64   `json:"bytes"`
	MaxBytes     int64   `json:"max_bytes"`
	Nodes        int     `json:"nodes"`
	Tails        int     `json:"tails"`
	Pinned       int     `json:"pinned"`
}

type latencyQuantile struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

func quantilesMs(s metrics.Summary) latencyQuantile {
	const ms = 1e3 // summaries are in seconds
	return latencyQuantile{
		N: s.N, Mean: s.Mean * ms, P50: s.P50 * ms, P90: s.P90 * ms,
		P99: s.P99 * ms, Max: s.Max * ms,
	}
}

// statsToMetricz maps one engine's ServeStats to the JSON shape.
func statsToMetricz(st core.ServeStats) metriczResponse {
	resp := metriczResponse{
		Serving:             st.Serving,
		Draining:            st.Draining,
		QueueDepth:          st.QueueDepth,
		QueueCap:            st.QueueCap,
		ActiveRequests:      st.ActiveRequests,
		MaxBatch:            st.MaxBatch,
		Submitted:           st.Submitted,
		Completed:           st.Completed,
		Canceled:            st.Canceled,
		Rejected:            st.Rejected,
		Iterations:          st.Iterations,
		TokensCommitted:     st.TokensCommitted,
		SpecVerifications:   st.SpecVerifications,
		MeanAcceptedLen:     st.MeanAcceptedLen,
		TokensPerSec:        st.TokensPerSec,
		TokensPerSecRecent:  st.RecentTokensPerSec,
		RecentWindowSeconds: st.RecentWindowSeconds,
		UptimeSeconds:       st.UptimeSeconds,
		KVBytesActive:       st.KVBytesActive,
		LatencyMs:           quantilesMs(st.Latency),
		QueueDelayMs:        quantilesMs(st.QueueDelay),
		TTFTMs:              quantilesMs(st.TTFT),
	}
	if st.PrefixCacheEnabled {
		p := st.PrefixCache
		resp.PrefixCache = &prefixCacheMetrics{
			Hits: p.Hits, Misses: p.Misses, HitRate: p.HitRate(),
			Inserts: p.Inserts, Evictions: p.Evictions,
			TokensShared: p.TokensShared, BytesShared: p.BytesShared,
			Bytes: p.Bytes, MaxBytes: p.MaxBytes,
			Nodes: p.Nodes, Tails: p.Tails, Pinned: p.Pinned,
		}
	}
	if st.PolicyEnabled {
		resp.Policy = &policyMetrics{
			LatencyIters:    st.PolicyLatencyIters,
			ThroughputIters: st.PolicyThroughputIters,
			SpecBudget:      st.PolicySpecBudget,
			TrackedRequests: st.PolicyTrackedRequests,
		}
	}
	if st.ShapeEnabled {
		resp.Shape = shapeToMetricz(st.Shape)
	}
	return resp
}

// fleetMetricz builds the fleet rollup: one engine's view of the
// replicas' summed stats (quantiles pooled exactly from the per-replica
// sample windows), serving while any replica is live, plus the router
// block and per-replica breakdown. Draining is the server's own flag,
// which handleMetricz sets.
func fleetMetricz(fs router.FleetStats) metriczResponse {
	resp := statsToMetricz(fs.Total)
	resp.Router = &routerMetrics{
		Policy:   fs.Policy,
		Replicas: len(fs.Replicas), Live: fs.Live, RingReplicas: fs.RingReplicas,
		Rerouted: fs.Rerouted, Spilled: fs.Spilled, Shed: fs.Shed,
	}
	for _, rs := range fs.Replicas {
		resp.Replicas = append(resp.Replicas, replicaMetrics{
			ID: rs.ID, State: rs.State, Err: rs.Err, InFlight: rs.InFlight,
			metriczResponse: statsToMetricz(rs.ServeStats)})
	}
	return resp
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	var resp metriczResponse
	if s.rt != nil {
		resp = fleetMetricz(s.rt.FleetStats())
	} else {
		resp = statsToMetricz(s.eng.ServeStats())
	}
	resp.Draining = resp.Draining || s.draining.Load()
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
