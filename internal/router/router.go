package router

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/kvcache"
	"specinfer/internal/metrics"
	"specinfer/internal/model"
	"specinfer/internal/workload"
)

// Router-level errors. Replica-level rejections reuse the core
// sentinels (core.ErrQueueFull, core.ErrDraining, core.ErrNotServing)
// so the HTTP layer maps fleet and single-engine deployments with the
// same switch.
var (
	// ErrAlreadyRunning is returned by Run when a fleet loop is already
	// running; a Router hosts at most one.
	ErrAlreadyRunning = errors.New("router: already running")
	// ErrReplicaLost retires a request whose serving replica failed
	// after streaming began: the partial output is delivered, but the
	// generation cannot be transparently resumed elsewhere (the
	// replica's KV state died with it).
	ErrReplicaLost = errors.New("router: serving replica failed mid-generation")
)

// Policy selects how the router picks a request's first-choice replica.
type Policy int

const (
	// PrefixAffinity routes by consistent hash over the prompt's
	// leading prefix chunk, so requests sharing a system prompt land on
	// the replica whose prefix KV cache is warm for it.
	PrefixAffinity Policy = iota
	// RoundRobin ignores the prompt and deals requests out in arrival
	// order — the hash-blind baseline the affinity benchmark measures
	// against.
	RoundRobin
)

// String names the policy for logs and the /metricz rollup.
func (p Policy) String() string {
	switch p {
	case PrefixAffinity:
		return "prefix-affinity"
	case RoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps a CLI flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "prefix-affinity", "affinity":
		return PrefixAffinity, nil
	case "round-robin", "roundrobin":
		return RoundRobin, nil
	}
	return 0, fmt.Errorf("router: unknown policy %q (want prefix-affinity or round-robin)", s)
}

// Config parameterizes a Router.
type Config struct {
	// Replicas are the engines the router places requests onto. Each
	// replica owns its own continuous-batching scheduler, admission
	// queue, and prefix KV cache; the router never shares KV state
	// across them. Required, non-empty.
	Replicas []*core.Engine
	// Policy selects first-choice placement; defaults to PrefixAffinity.
	Policy Policy
	// AffinityTokens is how many leading prompt tokens form the
	// affinity key; defaults to kvcache.DefaultPageRows (64) so the key
	// is exactly the prefix trie's first chunk — two prompts map to the
	// same replica iff they fall in the same first-page cache
	// equivalence class.
	AffinityTokens int
	// VirtualNodes is the number of ring points per replica; defaults
	// to 64, enough to keep arc ownership within a few percent of even
	// for small fleets.
	VirtualNodes int
}

// replica is one engine plus its fleet-side lifecycle state.
type replica struct {
	id  int
	eng *core.Engine
	// down is closed once the replica's Serve loop has exited (for any
	// reason); pumps select on it so a panicked replica cannot strand
	// them on channels nobody will ever close.
	down chan struct{}

	mu       sync.Mutex
	cancel   context.CancelFunc // guarded by mu (cancels the Serve ctx)
	draining bool               // guarded by mu (DrainReplica was called)
	stopped  bool               // guarded by mu (Serve has exited)
	err      error              // guarded by mu (failure cause; nil on graceful exit)
}

// isOut reports whether placement should skip the replica (drain
// requested or Serve exited).
func (rep *replica) isOut() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.draining || rep.stopped
}

// Router fronts a fleet of engine replicas: consistent-hash prefix
// affinity for first-choice placement, least-queue-depth fallback when
// the affine replica is saturated, shedding only when every replica's
// queue is full, and re-routing of queued work off drained or failed
// replicas.
type Router struct {
	cfg  Config
	reps []*replica

	mu       sync.Mutex
	ring     *ring  // guarded by mu
	running  bool   // guarded by mu
	rr       int    // guarded by mu (round-robin cursor)
	rerouted uint64 // guarded by mu (requests landed off their first-choice replica)
	shed     uint64 // guarded by mu (requests refused with every queue full)
}

// New validates cfg and builds the fleet. The engines are not started;
// call Run to serve.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: Config.Replicas must be non-empty")
	}
	switch cfg.Policy {
	case PrefixAffinity, RoundRobin:
	default:
		return nil, fmt.Errorf("router: unknown Policy %d", int(cfg.Policy))
	}
	if cfg.AffinityTokens < 0 {
		return nil, fmt.Errorf("router: AffinityTokens must be non-negative, got %d", cfg.AffinityTokens)
	}
	if cfg.AffinityTokens == 0 {
		cfg.AffinityTokens = kvcache.DefaultPageRows
	}
	if cfg.VirtualNodes < 0 {
		return nil, fmt.Errorf("router: VirtualNodes must be non-negative, got %d", cfg.VirtualNodes)
	}
	if cfg.VirtualNodes == 0 {
		cfg.VirtualNodes = 64
	}
	r := &Router{cfg: cfg, ring: newRing(cfg.VirtualNodes)}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, eng := range cfg.Replicas {
		if eng == nil {
			return nil, fmt.Errorf("router: Config.Replicas[%d] is nil", i)
		}
		r.reps = append(r.reps, &replica{id: i, eng: eng, down: make(chan struct{})})
		r.ring.add(i)
	}
	return r, nil
}

// Replicas reports the fleet size (including drained and failed
// replicas).
func (r *Router) Replicas() int { return len(r.reps) }

// Replica returns the i'th replica's engine (all replicas are built
// from the same core.Config, so shared configuration — vocabulary,
// batch bounds — may be read off any of them).
func (r *Router) Replica(i int) *core.Engine { return r.reps[i].eng }

// Run serves the fleet until ctx is cancelled and every replica has
// drained. Each replica's Serve loop runs on its own goroutine under a
// child context, so cancelling ctx is the coordinated drain: all
// replicas stop admitting at once, finish their in-flight work in
// parallel, and Run returns when the last one exits.
//
// A replica that panics is contained: the panic is recovered on the
// replica's goroutine, the replica is ejected from the ring, its
// re-routable requests move to the survivors, and the rest of the
// fleet keeps serving. Run returns the joined failure causes (nil when
// every replica exited by graceful drain).
func (r *Router) Run(ctx context.Context) error {
	if ctx == nil {
		return fmt.Errorf("router: Run requires a context")
	}
	r.mu.Lock()
	if r.running {
		r.mu.Unlock()
		return ErrAlreadyRunning
	}
	r.running = true
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.running = false
		r.mu.Unlock()
	}()

	var wg sync.WaitGroup
	errs := make([]error, len(r.reps))
	for _, rep := range r.reps {
		rctx, cancel := context.WithCancel(ctx)
		rep.mu.Lock()
		rep.cancel = cancel
		rep.mu.Unlock()
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			errs[rep.id] = r.runReplica(rctx, rep)
		}(rep)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runReplica hosts one replica's Serve loop, containing panics and
// ejecting the replica from the ring when the loop exits.
func (r *Router) runReplica(ctx context.Context, rep *replica) (err error) {
	defer close(rep.down)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("router: replica %d panicked: %v", rep.id, p)
		}
		r.eject(rep, err)
	}()
	return rep.eng.Serve(ctx)
}

// eject marks the replica stopped and removes its arc from the ring.
func (r *Router) eject(rep *replica, cause error) {
	rep.mu.Lock()
	rep.stopped = true
	rep.err = cause
	rep.mu.Unlock()
	r.mu.Lock()
	r.ring.remove(rep.id)
	r.mu.Unlock()
}

// DrainReplica gracefully retires one replica while the rest of the
// fleet keeps serving: the replica is ejected from the ring first (no
// new placements), then its Serve context is cancelled so it finishes
// in-flight work and rejects its queue — those rejected requests are
// re-routed to the survivors by their pumps, so no accepted request is
// lost.
func (r *Router) DrainReplica(id int) error {
	if id < 0 || id >= len(r.reps) {
		return fmt.Errorf("router: no replica %d", id)
	}
	rep := r.reps[id]
	r.mu.Lock()
	r.ring.remove(id)
	r.mu.Unlock()
	rep.mu.Lock()
	rep.draining = true
	cancel := rep.cancel
	rep.mu.Unlock()
	if cancel == nil {
		return fmt.Errorf("router: replica %d is not running", id)
	}
	cancel()
	return nil
}

// affinityKey is the placement key: the prefix-trie chunk key of the
// prompt's leading AffinityTokens tokens. Using the trie's own key
// (not a re-hash of the raw tokens) keeps the router's equivalence
// classes aligned with the cache's — prompts that would share a cached
// first page always share a replica.
func (r *Router) affinityKey(prompt []int) string {
	n := r.cfg.AffinityTokens
	if len(prompt) < n {
		n = len(prompt)
	}
	return kvcache.ChunkKey(prompt[:n])
}

// placement returns candidate replicas in submission order: the
// policy's first choice, then the remaining in-service replicas by
// ascending queue depth (the saturation fallback). Drained and failed
// replicas never appear.
func (r *Router) placement(req workload.Request) []*replica {
	r.mu.Lock()
	defer r.mu.Unlock()
	type cand struct {
		rep  *replica
		qlen int
	}
	var cands []cand
	for _, rep := range r.reps {
		if rep.isOut() {
			continue
		}
		cands = append(cands, cand{rep, rep.eng.QueueLen()})
	}
	if len(cands) == 0 {
		return nil
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].qlen < cands[j].qlen })

	var first *replica
	switch r.cfg.Policy {
	case PrefixAffinity:
		if id, ok := r.ring.lookup(r.affinityKey(req.Prompt)); ok {
			first = r.reps[id]
		}
	case RoundRobin:
		for range r.reps {
			rep := r.reps[r.rr%len(r.reps)]
			r.rr++
			if !rep.isOut() {
				first = rep
				break
			}
		}
	}

	order := make([]*replica, 0, len(cands))
	if first != nil && !first.isOut() {
		order = append(order, first)
	}
	for _, c := range cands {
		if c.rep != first {
			order = append(order, c.rep)
		}
	}
	return order
}

// trySubmit offers the request to each candidate in order. Saturation
// (queue full) and lifecycle rejections (draining, stopped) move on to
// the next candidate; validation errors propagate immediately. When
// every candidate refused, the error is core.ErrQueueFull if any queue
// was actually full (the 429 shed signal) and the last lifecycle error
// otherwise.
func (r *Router) trySubmit(ctx context.Context, req workload.Request, order []*replica) (*replica, <-chan model.Token, <-chan core.Result, error) {
	sawFull := false
	var lastErr error
	for i, rep := range order {
		toks, res, err := rep.eng.Submit(ctx, req)
		if err == nil {
			if i > 0 {
				r.mu.Lock()
				r.rerouted++
				r.mu.Unlock()
			}
			return rep, toks, res, nil
		}
		switch {
		case errors.Is(err, core.ErrQueueFull):
			sawFull = true
			lastErr = err
		case errors.Is(err, core.ErrDraining), errors.Is(err, core.ErrNotServing):
			lastErr = err
		default:
			return nil, nil, nil, err
		}
	}
	if sawFull {
		r.mu.Lock()
		r.shed++
		r.mu.Unlock()
		return nil, nil, nil, core.ErrQueueFull
	}
	if lastErr == nil {
		lastErr = core.ErrNotServing
	}
	return nil, nil, nil, lastErr
}

// Submit places a request on the fleet. The returned channels have the
// same contract as core.Engine.Submit: a token channel streaming
// committed tokens (closed at retirement) and a 1-buffered terminal
// Result channel. Unlike the engine's channels, these survive replica
// drain and failure: a request rejected by a draining replica before
// any token streamed is transparently re-routed to a survivor, and
// only a mid-generation replica loss surfaces (as ErrReplicaLost with
// the partial output).
func (r *Router) Submit(ctx context.Context, req workload.Request) (<-chan model.Token, <-chan core.Result, error) {
	if len(req.Prompt) == 0 {
		return nil, nil, fmt.Errorf("router: Submit requires a non-empty prompt")
	}
	if req.MaxNewTok <= 0 {
		return nil, nil, fmt.Errorf("router: Submit requires positive MaxNewTok, got %d", req.MaxNewTok)
	}
	order := r.placement(req)
	if len(order) == 0 {
		return nil, nil, core.ErrNotServing
	}
	rep, toks, res, err := r.trySubmit(ctx, req, order)
	if err != nil {
		return nil, nil, err
	}
	// The out channel's capacity covers the full generation budget
	// (like the engine's), so the pump never blocks on a slow consumer.
	out := make(chan model.Token, req.MaxNewTok)
	final := make(chan core.Result, 1)
	go r.pump(ctx, req, rep, toks, res, out, final)
	return out, final, nil
}

// retryable reports whether a terminal error means the request never
// ran to completion for replica-lifecycle reasons and may be re-routed
// (provided nothing streamed yet). Client-side errors (cancel,
// deadline) are final: the client gave up, not the replica.
func retryable(err error) bool {
	return errors.Is(err, core.ErrDraining) ||
		errors.Is(err, core.ErrDrainTimeout) ||
		errors.Is(err, core.ErrNotServing)
}

// resubmit re-places a request whose replica drained or failed before
// streaming anything. The failed replica is excluded explicitly (it
// may not be marked out yet); survivors that are merely saturated are
// retried with a short backoff, bounded by the client context and an
// attempt cap. When every survivor is itself draining or stopped the
// fleet is going down and resubmit fails fast.
func (r *Router) resubmit(ctx context.Context, req workload.Request, exclude int) (*replica, <-chan model.Token, <-chan core.Result, error) {
	const (
		attempts = 200
		backoff  = 2 * time.Millisecond
	)
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		order := r.placement(req)
		kept := order[:0]
		for _, rep := range order {
			if rep.id != exclude {
				kept = append(kept, rep)
			}
		}
		if len(kept) == 0 {
			return nil, nil, nil, core.ErrNotServing
		}
		sawFull := false
		for _, rep := range kept {
			toks, res, err := rep.eng.Submit(ctx, req)
			if err == nil {
				r.mu.Lock()
				r.rerouted++
				r.mu.Unlock()
				return rep, toks, res, nil
			}
			if errors.Is(err, core.ErrQueueFull) {
				sawFull = true
			}
		}
		if !sawFull {
			return nil, nil, nil, core.ErrDraining
		}
		select {
		case <-ctx.Done():
			return nil, nil, nil, ctx.Err()
		case <-time.After(backoff):
		}
	}
	return nil, nil, nil, core.ErrQueueFull
}

// pump forwards one request's stream from its serving replica to the
// router-owned channels, re-routing on replica drain/failure when
// nothing has streamed yet. It is the isolation boundary that lets
// Submit's channels outlive any single replica.
func (r *Router) pump(ctx context.Context, req workload.Request, rep *replica, toks <-chan model.Token, res <-chan core.Result, out chan<- model.Token, final chan<- core.Result) {
	streamed := 0
	deliver := func(result core.Result) {
		close(out)
		final <- result
		close(final)
	}
	// drain forwards whatever the retiring replica already buffered.
	// The engine streams every token before sending the Result (the
	// token channel's capacity covers the full budget), so once a
	// Result is in hand the token channel is closed and fully
	// populated.
	drain := func() {
		if toks == nil {
			return
		}
		for t := range toks {
			out <- t
			streamed++
		}
		toks = nil
	}
	// onResult finishes or re-routes; reports whether the pump should
	// keep running against a new replica.
	onResult := func(result core.Result) bool {
		drain()
		if retryable(result.Err) && streamed == 0 {
			if rep2, t2, r2, err := r.resubmit(ctx, req, rep.id); err == nil {
				rep, toks, res = rep2, t2, r2
				return true
			}
		}
		deliver(result)
		return false
	}
	for {
		select {
		case t, ok := <-toks:
			if !ok {
				toks = nil // closed: the terminal Result is imminent
				continue
			}
			out <- t
			streamed++
		case result := <-res:
			if !onResult(result) {
				return
			}
		case <-rep.down:
			// The replica's Serve loop exited. On a graceful exit every
			// accepted request's Result was delivered before down
			// closed, so prefer the buffered Result; after a panic the
			// channels will never close and the request must be
			// re-routed (nothing streamed) or reported lost.
			select {
			case result := <-res:
				if !onResult(result) {
					return
				}
				continue
			default:
			}
			if streamed == 0 {
				if rep2, t2, r2, err := r.resubmit(ctx, req, rep.id); err == nil {
					rep, toks, res = rep2, t2, r2
					continue
				}
			}
			deliver(core.Result{
				RequestResult: core.RequestResult{ID: req.ID, PromptLen: len(req.Prompt)},
				Err:           ErrReplicaLost,
			})
			return
		}
	}
}

// ReplicaStats is one replica's ServeStats plus its fleet-side
// lifecycle state.
type ReplicaStats struct {
	ID int
	// State is "live", "draining", "down", or "idle" (engine built but
	// Serve not yet running).
	State string
	// Err is the failure cause when the replica went down for a reason
	// other than graceful drain.
	Err string
	core.ServeStats
}

// FleetStats is the fleet-wide /metricz rollup: per-replica snapshots
// plus aggregates. Latency and queue-delay quantiles are computed by
// pooling the replicas' raw retained samples (metrics.Merge), which is
// exact for the merged window — not an average of per-replica
// percentiles, which has no defined meaning for P99.
type FleetStats struct {
	Policy   string
	Replicas []ReplicaStats
	// Live counts replicas currently accepting work; RingReplicas
	// counts replicas still owning ring arcs (ejected replicas own
	// none).
	Live, RingReplicas int
	// Rerouted counts requests that landed off their first-choice
	// replica (saturation fallback or post-drain/failure re-routing);
	// Shed counts requests refused with every replica's queue full.
	Rerouted, Shed uint64
	// Aggregate counters summed over replicas.
	Submitted, Completed, Canceled, Rejected uint64
	TokensCommitted                          uint64
	// SpecVerifications/SpecTokensAccepted sum the replicas' speculative
	// verification counters; MeanAcceptedLen is the fleet-wide mean
	// accept length per verification (recomputed from the sums, not an
	// average of per-replica means).
	SpecVerifications, SpecTokensAccepted uint64
	MeanAcceptedLen                       float64
	QueueDepth, QueueCap                  int
	KVBytesActive                         int64
	TokensPerSec, RecentTokensPerSec      float64
	// Latency and QueueDelay are fleet-wide quantiles over the pooled
	// per-replica sample windows, in seconds.
	Latency, QueueDelay metrics.Summary
	// Prefix-cache rollup across replicas (each replica owns a private
	// cache; these are sums).
	PrefixCacheEnabled                    bool
	PrefixHits, PrefixMisses              uint64
	PrefixTokensShared, PrefixBytesShared uint64
	PrefixBytes                           int64
	// Speculation-policy rollup across replicas (core.Config.Policy):
	// per-mode iteration counts, live speculation budgets, and tracked
	// acceptance histories summed over policy-enabled replicas.
	SpecPolicyEnabled                         bool
	PolicyLatencyIters, PolicyThroughputIters uint64
	PolicySpecBudget, PolicyTrackedRequests   int
	// PolicySteps and PolicyZeroSteps sum the replicas' policy-decided
	// request-steps and the zero-budget (incremental) ones among them.
	PolicySteps, PolicyZeroSteps uint64
}

// FleetStats snapshots the fleet.
func (r *Router) FleetStats() FleetStats {
	fs := FleetStats{Policy: r.cfg.Policy.String()}
	lat := make([]metrics.Snapshot, 0, len(r.reps))
	qd := make([]metrics.Snapshot, 0, len(r.reps))
	for _, rep := range r.reps {
		st := rep.eng.ServeStats()
		rs := ReplicaStats{ID: rep.id, ServeStats: st}
		rep.mu.Lock()
		switch {
		case rep.stopped:
			rs.State = "down"
			if rep.err != nil {
				rs.Err = rep.err.Error()
			}
		case rep.draining || st.Draining:
			rs.State = "draining"
		case st.Serving:
			rs.State = "live"
		default:
			rs.State = "idle"
		}
		rep.mu.Unlock()
		if rs.State == "live" {
			fs.Live++
		}
		fs.Replicas = append(fs.Replicas, rs)
		fs.Submitted += st.Submitted
		fs.Completed += st.Completed
		fs.Canceled += st.Canceled
		fs.Rejected += st.Rejected
		fs.TokensCommitted += st.TokensCommitted
		fs.SpecVerifications += st.SpecVerifications
		fs.SpecTokensAccepted += st.SpecTokensAccepted
		fs.QueueDepth += st.QueueDepth
		fs.QueueCap += st.QueueCap
		fs.KVBytesActive += st.KVBytesActive
		fs.TokensPerSec += st.TokensPerSec
		fs.RecentTokensPerSec += st.RecentTokensPerSec
		if st.PrefixCacheEnabled {
			fs.PrefixCacheEnabled = true
			fs.PrefixHits += st.PrefixCache.Hits
			fs.PrefixMisses += st.PrefixCache.Misses
			fs.PrefixTokensShared += st.PrefixCache.TokensShared
			fs.PrefixBytesShared += st.PrefixCache.BytesShared
			fs.PrefixBytes += st.PrefixCache.Bytes
		}
		if st.PolicyEnabled {
			fs.SpecPolicyEnabled = true
			fs.PolicyLatencyIters += st.PolicyLatencyIters
			fs.PolicyThroughputIters += st.PolicyThroughputIters
			fs.PolicySpecBudget += st.PolicySpecBudget
			fs.PolicyTrackedRequests += st.PolicyTrackedRequests
			fs.PolicySteps += st.PolicySteps
			fs.PolicyZeroSteps += st.PolicyZeroSteps
		}
		lat = append(lat, st.LatencySamples)
		qd = append(qd, st.QueueDelaySamples)
	}
	fs.Latency = metrics.Merge(lat...).Summary()
	fs.QueueDelay = metrics.Merge(qd...).Summary()
	if fs.SpecVerifications > 0 {
		fs.MeanAcceptedLen = float64(fs.SpecTokensAccepted) / float64(fs.SpecVerifications)
	}
	r.mu.Lock()
	fs.Rerouted = r.rerouted
	fs.Shed = r.shed
	fs.RingReplicas = r.ring.size()
	r.mu.Unlock()
	return fs
}
