package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"specinfer/internal/kvcache"
	"specinfer/internal/metrics"
	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/workload"
)

// recentThroughputSamples is how many recent iteration boundaries the
// sliding-window throughput of ServeStats spans: at serving iteration
// rates the window covers the last few seconds of traffic, and after an
// idle period the stretched window decays the rate toward zero instead
// of reporting a stale lifetime average as if it were current.
const recentThroughputSamples = 128

// latencyWindow is the number of recent completed requests whose latency,
// queue delay and time to first token ServeStats retains for quantiles.
const latencyWindow = 1024

// Live-serving errors. The HTTP layer maps them to status codes
// (ErrQueueFull -> 429, ErrDraining/ErrNotServing -> 503).
var (
	// ErrNotServing is returned by Submit when no Serve loop is running.
	ErrNotServing = errors.New("core: engine is not serving")
	// ErrAlreadyServing is returned by Serve when a loop is already
	// running; an Engine hosts at most one scheduler at a time.
	ErrAlreadyServing = errors.New("core: engine is already serving")
	// ErrDraining rejects work submitted after graceful drain began.
	ErrDraining = errors.New("core: engine is draining, not accepting requests")
	// ErrQueueFull is the backpressure signal: MaxBatch slots busy and
	// QueueDepth requests already waiting.
	ErrQueueFull = errors.New("core: admission queue is full")
	// ErrDrainTimeout retires requests still in flight when graceful
	// drain exceeds Config.DrainTimeout.
	ErrDrainTimeout = errors.New("core: request aborted by drain timeout")
)

// Result is the terminal outcome of a live request submitted through
// Submit. Output and the per-step statistics are whatever the request
// committed before it finished or was retired — a cancelled request
// reports its partial generation, and Err the reason.
type Result struct {
	RequestResult
	// QueueDelay is the wall-clock time from Submit to slot admission.
	QueueDelay time.Duration
	// Latency is the wall-clock time from Submit to retirement.
	Latency time.Duration
}

// liveReq is the scheduler-side handle of one submitted request.
type liveReq struct {
	ctx context.Context
	req workload.Request
	// cache is the prefix cache the request's sessions look their
	// prompt up in: the engine's own, or a guest's host's (SubmitGuest).
	cache *kvcache.PrefixCache
	// tokens streams committed tokens in order; its capacity is the
	// request's full generation budget, so scheduler sends never block
	// on a slow consumer. Closed at retirement.
	tokens chan model.Token
	// result delivers the terminal Result (capacity 1) and is closed
	// after the send.
	result    chan Result
	submitted time.Time
	started   time.Time // zero until admitted to a slot
	streamed  int       // tokens already sent on the tokens channel
}

// stream sends any newly committed tokens of lr to the consumer. The
// first call that sends a token records the request's time to first
// token (Submit to that send).
func (s *serveState) stream(lr *liveReq, out []model.Token) {
	if lr.streamed == 0 && len(out) > 0 {
		ttft := s.clock().Sub(lr.submitted)
		s.mu.Lock()
		s.ttft.Add(ttft.Seconds())
		s.mu.Unlock()
	}
	for _, tok := range out[lr.streamed:] {
		lr.tokens <- tok
	}
	lr.streamed = len(out)
}

// finish streams any remaining tokens of lr, delivers the Result, and
// closes both channels. Must be called exactly once per request.
func (s *serveState) finish(lr *liveReq, res Result) {
	s.stream(lr, res.Output)
	close(lr.tokens)
	lr.result <- res
	close(lr.result)
}

// serveState is the shared state between the scheduler goroutine, Submit
// callers, and ServeStats readers.
type serveState struct {
	admit chan *liveReq
	clock func() time.Time

	mu         sync.Mutex
	draining   bool      // guarded by mu
	stopped    bool      // guarded by mu (scheduler exited; no further sends to admit)
	started    time.Time // guarded by mu
	submitted  uint64    // guarded by mu
	completed  uint64    // guarded by mu
	canceled   uint64    // guarded by mu (retired with a context/drain error)
	rejected   uint64    // guarded by mu (refused at Submit: queue full or draining)
	iterations uint64    // guarded by mu
	tokens     uint64    // guarded by mu
	// verifications counts speculative verification passes and
	// specAccepted the speculated tokens those passes accepted, so
	// /metricz can report the fleet-visible mean accept length the
	// verifier choice controls.
	verifications uint64          // guarded by mu
	specAccepted  uint64          // guarded by mu
	activeReqs    int             // guarded by mu
	kvBytes       int64           // guarded by mu
	latency       *metrics.Window // guarded by mu
	queueDelay    *metrics.Window // guarded by mu
	// ttft holds recent requests' times to first token: Submit to the
	// first streamed token.
	ttft *metrics.Window // guarded by mu
	// recentT/recentC pair (uptime seconds, cumulative committed
	// tokens) at the last recentThroughputSamples iteration boundaries,
	// backing the sliding-window throughput figure.
	recentT *metrics.Window // guarded by mu
	recentC *metrics.Window // guarded by mu
	// polLatIters/polThrIters count iterations the speculation policy
	// decided in latency/throughput mode, and polBudget is the summed
	// node budget it granted across the last iteration's batch. All
	// zero when the policy engine is disabled.
	polLatIters uint64 // guarded by mu
	polThrIters uint64 // guarded by mu
	polBudget   int    // guarded by mu
}

// ServeStats is a point-in-time snapshot of the live serving loop, the
// backing data of the daemon's /metricz endpoint.
type ServeStats struct {
	Serving  bool
	Draining bool
	// QueueDepth is the number of submitted requests waiting for a
	// slot; QueueCap is Config.QueueDepth.
	QueueDepth, QueueCap int
	// ActiveRequests is the batch size of the last iteration's end;
	// MaxBatch is the slot bound.
	ActiveRequests, MaxBatch int
	// Submitted counts accepted Submit calls; Completed normal
	// retirements; Canceled early retirements (cancel/deadline/drain);
	// Rejected refusals at Submit time.
	Submitted, Completed, Canceled, Rejected uint64
	// Iterations and TokensCommitted accumulate over the Serve lifetime.
	Iterations, TokensCommitted uint64
	// SpecVerifications counts speculative verification passes (one per
	// request per iteration in the speculative modes, except the zero
	// steps the shape chooser grants, which verify nothing) and
	// SpecTokensAccepted the speculated tokens those passes accepted
	// (committed runs minus bonus tokens, before truncation).
	// MeanAcceptedLen is their ratio — the mean accept length per
	// verification, the figure of merit the verifier choice
	// (Config.Verifier) moves. All zero for incremental decoding.
	SpecVerifications, SpecTokensAccepted uint64
	MeanAcceptedLen                       float64
	// KVBytesActive is the KV-cache storage currently held by active
	// request sessions (0 when the model does not implement
	// model.CacheSizer).
	KVBytesActive int64
	// UptimeSeconds is the wall-clock age of the Serve loop, and
	// TokensPerSec the lifetime commit throughput.
	UptimeSeconds float64
	TokensPerSec  float64
	// RecentTokensPerSec is the commit throughput over the last
	// recentThroughputSamples iteration boundaries — the "current"
	// figure the lifetime average cannot provide once traffic pauses
	// (it keeps averaging the idle time in, while the recent figure
	// decays toward zero). RecentWindowSeconds is the span the recent
	// figure covers; both are 0 before the second iteration.
	RecentTokensPerSec  float64
	RecentWindowSeconds float64
	// Latency and QueueDelay summarize the most recent completed
	// requests (latencyWindow of them), in seconds. TTFT
	// summarizes the time to first token — Submit to the first streamed
	// token — of the most recent requests that streamed one.
	Latency, QueueDelay, TTFT metrics.Summary
	// LatencySamples, QueueDelaySamples and TTFTSamples are the raw
	// retained samples behind the three summaries, exported so a
	// multi-replica rollup can merge per-replica windows into exact
	// fleet-wide quantiles (metrics.Merge) instead of averaging
	// per-replica percentiles.
	LatencySamples, QueueDelaySamples, TTFTSamples metrics.Snapshot
	// PrefixCache snapshots the cross-request prefix KV cache;
	// PrefixCacheEnabled is false (and the stats zero) when
	// Config.PrefixCacheBytes is unset.
	PrefixCacheEnabled bool
	PrefixCache        kvcache.PrefixStats
	// PolicyEnabled reports whether the speculation policy engine
	// (Config.Policy) is active; the remaining Policy* fields are zero
	// when it is not. PolicyLatencyIters/PolicyThroughputIters count
	// iterations decided in each mode, PolicySpecBudget is the summed
	// speculated-node budget granted across the last iteration's batch
	// (the "current speculation budget"), and PolicyTrackedRequests is
	// the number of requests with live acceptance history (bounded by
	// the active batch once retire hooks run).
	PolicyEnabled                             bool
	PolicyLatencyIters, PolicyThroughputIters uint64
	PolicySpecBudget                          int
	PolicyTrackedRequests                     int
	// ShapeEnabled reports whether the engine prices its step shapes:
	// every speculative mode does under Serve, with or without a
	// Policy (DESIGN.md §26). Shape then snapshots the shape chooser —
	// its zero steps (incremental steps taken because speculation was
	// measured not to pay), its steps by chosen depth, and its current
	// zero-step cost and step-cost fit — over the engine's lifetime;
	// it is zero when ShapeEnabled is false.
	ShapeEnabled bool
	Shape        policy.ChooserStats
}

// SumServeStats rolls the snapshots of several engines — a fleet's
// replicas — up into one. Counters, gauges, batch and queue bounds and
// throughputs sum; uptime and the recent window are the longest; the
// latency, queue-delay and TTFT quantiles come from the pooled sample
// windows (metrics.Merge), not from averaging per-engine percentiles,
// which has no defined meaning for P99; the mean accept length is
// recomputed from the summed counters; the prefix caches' stats sum
// field by field, and the shape choosers' by policy.SumChooserStats.
// A block (prefix cache, policy, shape) is on when any engine's is.
// Serving and Draining stay false: whether a fleet serves or drains is
// its owner's state, not a sum of its engines'.
func SumServeStats(sts ...ServeStats) ServeStats {
	var sum ServeStats
	var lat, qd, ttft []metrics.Snapshot
	var shapes []policy.ChooserStats
	for _, st := range sts {
		sum.QueueDepth += st.QueueDepth
		sum.QueueCap += st.QueueCap
		sum.ActiveRequests += st.ActiveRequests
		sum.MaxBatch += st.MaxBatch
		sum.Submitted += st.Submitted
		sum.Completed += st.Completed
		sum.Canceled += st.Canceled
		sum.Rejected += st.Rejected
		sum.Iterations += st.Iterations
		sum.TokensCommitted += st.TokensCommitted
		sum.SpecVerifications += st.SpecVerifications
		sum.SpecTokensAccepted += st.SpecTokensAccepted
		sum.KVBytesActive += st.KVBytesActive
		sum.UptimeSeconds = max(sum.UptimeSeconds, st.UptimeSeconds)
		sum.TokensPerSec += st.TokensPerSec
		sum.RecentTokensPerSec += st.RecentTokensPerSec
		sum.RecentWindowSeconds = max(sum.RecentWindowSeconds, st.RecentWindowSeconds)
		lat = append(lat, st.LatencySamples)
		qd = append(qd, st.QueueDelaySamples)
		ttft = append(ttft, st.TTFTSamples)
		sum.PrefixCacheEnabled = sum.PrefixCacheEnabled || st.PrefixCacheEnabled
		sum.PrefixCache = sum.PrefixCache.Add(st.PrefixCache)
		sum.PolicyEnabled = sum.PolicyEnabled || st.PolicyEnabled
		sum.PolicyLatencyIters += st.PolicyLatencyIters
		sum.PolicyThroughputIters += st.PolicyThroughputIters
		sum.PolicySpecBudget += st.PolicySpecBudget
		sum.PolicyTrackedRequests += st.PolicyTrackedRequests
		sum.ShapeEnabled = sum.ShapeEnabled || st.ShapeEnabled
		shapes = append(shapes, st.Shape)
	}
	if sum.SpecVerifications > 0 {
		sum.MeanAcceptedLen = float64(sum.SpecTokensAccepted) / float64(sum.SpecVerifications)
	}
	sum.LatencySamples = metrics.Merge(lat...)
	sum.QueueDelaySamples = metrics.Merge(qd...)
	sum.TTFTSamples = metrics.Merge(ttft...)
	sum.Latency = sum.LatencySamples.Summary()
	sum.QueueDelay = sum.QueueDelaySamples.Summary()
	sum.TTFT = sum.TTFTSamples.Summary()
	sum.Shape = policy.SumChooserStats(shapes...)
	return sum
}

// Serve runs the scheduler loop (Engine.schedule) on the Submit queue
// until ctx is cancelled and the engine has drained. Each pass also
// retires cancelled or expired requests at the iteration boundary
// (releasing their sessions and KV pages — a request admitted and
// cancelled in the same pass never pays for its prefill) and streams
// newly committed tokens.
//
// Cancelling ctx starts graceful drain: Submit rejects with
// ErrDraining, queued-but-unadmitted requests are retired with
// ErrDraining, in-flight requests run to completion (bounded by
// Config.DrainTimeout if set), and Serve returns nil.
func (e *Engine) Serve(ctx context.Context) error {
	if ctx == nil {
		return fmt.Errorf("core: Serve requires a context")
	}
	s := &serveState{
		admit:      make(chan *liveReq, e.cfg.QueueDepth),
		clock:      e.cfg.Clock,
		started:    e.cfg.Clock(),
		latency:    metrics.NewWindow(latencyWindow),
		queueDelay: metrics.NewWindow(latencyWindow),
		ttft:       metrics.NewWindow(latencyWindow),
		recentT:    metrics.NewWindow(recentThroughputSamples),
		recentC:    metrics.NewWindow(recentThroughputSamples),
	}
	e.mu.Lock()
	if e.srv != nil {
		e.mu.Unlock()
		return ErrAlreadyServing
	}
	e.srv = s
	e.mu.Unlock()
	defer e.stopServing(s)
	e.schedule(&liveSource{e: e, s: s, ctx: ctx}, e.cfg.Clock)
	return nil
}

// liveSource feeds the scheduler loop from the Submit queue on
// Config.Clock, and runs graceful drain and its deadline.
type liveSource struct {
	e             *Engine
	s             *serveState
	ctx           context.Context
	draining      bool
	drainDeadline time.Time
}

// admit refreshes the active-slot stats, blocks while nothing is active
// until a request arrives or shutdown starts, then fills free slots
// from the queue without blocking and sweeps the batch.
func (l *liveSource) admit(active []*reqState) ([]*reqState, bool) {
	e, s := l.e, l.s
	s.setActive(active)
	if len(active) == 0 && !l.draining && l.ctx.Err() == nil {
		select {
		case lr := <-s.admit:
			if st := e.admitLive(s, lr); st != nil {
				active = append(active, st)
			}
		case <-l.ctx.Done():
		}
	}
	// Enter draining at the first sign of shutdown. Queued-but-
	// unadmitted requests are retired with ErrDraining right here, not
	// when the loop exits: their clients should see the 503
	// immediately, not after the longest in-flight request finishes.
	if !l.draining && l.ctx.Err() != nil {
		l.draining = true
		s.setDraining()
		e.rejectQueued(s)
		if e.cfg.DrainTimeout > 0 {
			l.drainDeadline = s.clock().Add(e.cfg.DrainTimeout)
		}
	}
	// Dead-context requests are swept out of the queue first so they
	// never hold a queue slot against live submitters (a full-but-dead
	// queue would bounce Submit with spurious ErrQueueFull).
	if !l.draining {
		e.sweepQueue(s)
	fill:
		for len(active) < e.cfg.MaxBatch {
			select {
			case lr := <-s.admit:
				if st := e.admitLive(s, lr); st != nil {
					active = append(active, st)
				}
			default:
				break fill
			}
		}
	}
	// Retire cancelled and deadline-expired requests before paying for
	// their iteration, and, past the drain deadline, whatever is still
	// in flight.
	timedOut := !l.drainDeadline.IsZero() && !s.clock().Before(l.drainDeadline)
	still := active[:0]
	for _, st := range active {
		switch {
		case st.live.ctx.Err() != nil:
			e.finishLive(s, st, st.live.ctx.Err())
		case timedOut:
			e.finishLive(s, st, ErrDrainTimeout)
		default:
			still = append(still, st)
		}
	}
	return still, !l.draining
}

// backlog is the Submit queue's depth.
func (l *liveSource) backlog() int { return len(l.s.admit) }

// iterated folds the record into the live stats and streams every
// request's newly committed tokens.
func (l *liveSource) iterated(rec IterationRecord, active []*reqState) {
	l.s.recordIteration(rec)
	for _, st := range active {
		l.s.stream(st.live, st.res.Output)
	}
}

func (l *liveSource) retire(st *reqState) { l.s.deliver(st) }

// Submit hands a request to the running Serve loop. On acceptance it
// returns a token channel streaming tokens as iterations commit them
// (closed at retirement) and a 1-buffered result channel delivering the
// terminal Result. ctx cancellation or deadline expiry retires the
// request at the next iteration boundary, releasing its batching slot
// and KV cache; the Result then carries ctx.Err() and the partial
// output.
//
// Submit fails fast with ErrNotServing, ErrDraining, or — when MaxBatch
// slots are busy and QueueDepth requests already wait — ErrQueueFull.
// The request's ID seeds its deterministic RNG stream; callers that
// want reproducible stochastic decoding assign stable IDs.
func (e *Engine) Submit(ctx context.Context, req workload.Request) (<-chan model.Token, <-chan Result, error) {
	return e.submit(ctx, req, e.prefix)
}

// SubmitGuest is Submit for a request placed off its prefix-affine
// replica, host: it marks req a guest (workload.Request.Guest), whose
// sessions look their prompt up in host's prefix cache, adopt what is
// there, and insert nothing anywhere. When host has no prefix cache or
// serves other model objects than e (sharesModels), the guest looks up
// in e's own cache instead.
func (e *Engine) SubmitGuest(ctx context.Context, req workload.Request, host *Engine) (<-chan model.Token, <-chan Result, error) {
	req.Guest = true
	cache := e.prefix
	if host != nil && host.prefix != nil && e.sharesModels(host) {
		cache = host.prefix
	}
	return e.submit(ctx, req, cache)
}

// submit queues req for the Serve loop, its sessions to look up in cache.
func (e *Engine) submit(ctx context.Context, req workload.Request, cache *kvcache.PrefixCache) (<-chan model.Token, <-chan Result, error) {
	if len(req.Prompt) == 0 {
		return nil, nil, fmt.Errorf("core: Submit requires a non-empty prompt")
	}
	if req.MaxNewTok <= 0 {
		return nil, nil, fmt.Errorf("core: Submit requires positive MaxNewTok, got %d", req.MaxNewTok)
	}
	if ctx == nil {
		//lint:ignore ctxflow nil-ctx callers opted out of cancellation; Background is the documented fallback, not a severed chain
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.srv
	if s == nil {
		return nil, nil, ErrNotServing
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil, nil, ErrNotServing
	}
	if s.draining {
		s.rejected++
		return nil, nil, ErrDraining
	}
	lr := &liveReq{
		ctx:       ctx,
		req:       req,
		cache:     cache,
		tokens:    make(chan model.Token, req.MaxNewTok),
		result:    make(chan Result, 1),
		submitted: s.clock(),
	}
	select {
	case s.admit <- lr:
		s.submitted++
		return lr.tokens, lr.result, nil
	default:
		s.rejected++
		return nil, nil, ErrQueueFull
	}
}

// ServeStats snapshots the live serving loop. The zero value (Serving
// false) is returned when no Serve loop is running.
func (e *Engine) ServeStats() ServeStats {
	e.mu.Lock()
	s := e.srv
	e.mu.Unlock()
	var prefix kvcache.PrefixStats
	if e.prefix != nil {
		prefix = e.prefix.Stats()
	}
	if s == nil {
		st := ServeStats{
			MaxBatch: e.cfg.MaxBatch, QueueCap: e.cfg.QueueDepth,
			PrefixCacheEnabled: e.prefix != nil, PrefixCache: prefix,
		}
		if e.pol != nil {
			st.PolicyEnabled = true
			st.PolicyTrackedRequests = e.pol.Stats().TrackedRequests
		}
		e.shapeStats(&st)
		return st
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ServeStats{
		Serving:            !s.stopped,
		Draining:           s.draining,
		QueueDepth:         len(s.admit),
		QueueCap:           e.cfg.QueueDepth,
		ActiveRequests:     s.activeReqs,
		MaxBatch:           e.cfg.MaxBatch,
		Submitted:          s.submitted,
		Completed:          s.completed,
		Canceled:           s.canceled,
		Rejected:           s.rejected,
		Iterations:         s.iterations,
		TokensCommitted:    s.tokens,
		SpecVerifications:  s.verifications,
		SpecTokensAccepted: s.specAccepted,
		KVBytesActive:      s.kvBytes,
		Latency:            s.latency.Summary(),
		QueueDelay:         s.queueDelay.Summary(),
		TTFT:               s.ttft.Summary(),
		LatencySamples:     s.latency.Snapshot(),
		QueueDelaySamples:  s.queueDelay.Snapshot(),
		TTFTSamples:        s.ttft.Snapshot(),

		PrefixCacheEnabled: e.prefix != nil,
		PrefixCache:        prefix,
	}
	st.UptimeSeconds = s.clock().Sub(s.started).Seconds()
	if st.UptimeSeconds > 0 {
		st.TokensPerSec = float64(s.tokens) / st.UptimeSeconds
	}
	if s.verifications > 0 {
		st.MeanAcceptedLen = float64(s.specAccepted) / float64(s.verifications)
	}
	// Recent throughput: tokens committed since the oldest retained
	// iteration sample, over the time elapsed since it. The oldest
	// sample's own tokens are stamped at its time, so they fall outside
	// the interval — the rate covers strictly-later commits.
	if ts := s.recentT.Values(); len(ts) > 0 {
		cs := s.recentC.Values()
		span := st.UptimeSeconds - ts[0]
		st.RecentWindowSeconds = span
		if span > 0 {
			st.RecentTokensPerSec = (float64(s.tokens) - cs[0]) / span
		}
	}
	if e.pol != nil {
		// s.mu is already held (deferred above); the controller's own
		// lock nests under it without ordering conflicts — the
		// controller never acquires engine or serve locks.
		st.PolicyEnabled = true
		st.PolicyTrackedRequests = e.pol.Stats().TrackedRequests
		st.PolicyLatencyIters = s.polLatIters
		st.PolicyThroughputIters = s.polThrIters
		st.PolicySpecBudget = s.polBudget
	}
	e.shapeStats(&st)
	return st
}

// shapeStats fills the shape chooser's block of st.
func (e *Engine) shapeStats(st *ServeStats) {
	if e.shapes != nil {
		st.ShapeEnabled = true
		st.Shape = e.shapes.Stats()
	}
}

// Draining reports whether the engine is refusing new work while
// finishing in-flight requests (the daemon's health probe).
func (e *Engine) Draining() bool {
	e.mu.Lock()
	s := e.srv
	e.mu.Unlock()
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueLen reports the number of submitted requests waiting for a
// batching slot (0 when no Serve loop is running). It is the cheap
// signal a router polls for least-queue-depth placement — unlike
// ServeStats it takes no per-window copies and never walks the prefix
// cache.
func (e *Engine) QueueLen() int {
	e.mu.Lock()
	s := e.srv
	e.mu.Unlock()
	if s == nil {
		return 0
	}
	return len(s.admit)
}

// Serving reports whether a Serve loop is accepting submissions.
func (e *Engine) Serving() bool {
	e.mu.Lock()
	s := e.srv
	e.mu.Unlock()
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.stopped && !s.draining
}

// admitLive moves a queued request into a batching slot: open its
// sessions and record its admission time (the next iteration's prefill
// phase prefills them). A request whose context is already dead is
// retired immediately instead.
func (e *Engine) admitLive(s *serveState, lr *liveReq) *reqState {
	if err := lr.ctx.Err(); err != nil {
		s.refuse(lr, err)
		return nil
	}
	lr.started = s.clock()
	st := e.admit(lr.req, lr.cache)
	st.live = lr
	return st
}

// finishLive retires one live request early with err: release its
// sessions and deliver the Result.
func (e *Engine) finishLive(s *serveState, st *reqState, err error) {
	e.release(st)
	st.res.Err = err
	s.deliver(st)
}

// deliver sends a retired request's Result and records its latency;
// its sessions are already released.
func (s *serveState) deliver(st *reqState) {
	now := s.clock()
	res := Result{
		RequestResult: st.res,
		QueueDelay:    st.live.started.Sub(st.live.submitted),
		Latency:       now.Sub(st.live.submitted),
	}
	s.mu.Lock()
	if res.Err == nil {
		s.completed++
	} else {
		s.canceled++
	}
	s.latency.Add(res.Latency.Seconds())
	s.queueDelay.Add(res.QueueDelay.Seconds())
	s.mu.Unlock()
	s.finish(st.live, res)
}

// refuse retires a request that never held a slot with err.
func (s *serveState) refuse(lr *liveReq, err error) {
	s.mu.Lock()
	s.canceled++
	s.mu.Unlock()
	s.finish(lr, Result{
		RequestResult: RequestResult{ID: lr.req.ID, PromptLen: len(lr.req.Prompt), Err: err},
		Latency:       s.clock().Sub(lr.submitted),
	})
}

// sweepQueue retires queued-but-unadmitted requests whose context is
// already cancelled or expired. Without it a dead request occupies its
// admission-queue slot until a batch slot frees up to admit (and only
// then discard) it, so a queue full of dead requests bounces live
// Submit calls with ErrQueueFull. Draining and requeuing the channel
// under s.mu is race-free: Submit only sends while holding s.mu, so no
// send can interleave with the drain-filter-requeue cycle and the
// survivors keep their arrival order.
func (e *Engine) sweepQueue(s *serveState) {
	var dead []*liveReq
	s.mu.Lock()
	for i, n := 0, len(s.admit); i < n; i++ {
		lr := <-s.admit
		if lr.ctx.Err() != nil {
			dead = append(dead, lr)
		} else {
			s.admit <- lr
		}
	}
	s.mu.Unlock()
	for _, lr := range dead {
		s.refuse(lr, lr.ctx.Err())
	}
}

// rejectQueued retires every queued-but-unadmitted request with
// ErrDraining, called the moment drain starts. Submit already rejects
// under s.draining, so once the queue is emptied here no new request
// can enter it.
func (e *Engine) rejectQueued(s *serveState) {
	var queued []*liveReq
	s.mu.Lock()
	for i, n := 0, len(s.admit); i < n; i++ {
		queued = append(queued, <-s.admit)
	}
	s.mu.Unlock()
	for _, lr := range queued {
		s.refuse(lr, ErrDraining)
	}
}

// stopServing detaches the serve state from the engine and rejects any
// requests still sitting in the admission queue. After it returns,
// Submit reports ErrNotServing.
func (e *Engine) stopServing(s *serveState) {
	e.mu.Lock()
	e.srv = nil
	e.mu.Unlock()
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	// No sender can reach s.admit anymore (Submit checks stopped under
	// the same locks), so draining the buffer retires every straggler.
	for {
		select {
		case lr := <-s.admit:
			s.refuse(lr, ErrDraining)
		default:
			return
		}
	}
}

func (s *serveState) setDraining() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// recordIteration folds one iteration record into the live stats.
func (s *serveState) recordIteration(rec IterationRecord) {
	policyOn := rec.PolicyMode != ""
	var toks, verifs, accepted uint64
	var polBudget int
	for _, r := range rec.Reqs {
		toks += uint64(r.Committed)
		polBudget += r.PolicyNodes
		switch {
		case r.Depth == 0:
			// an incremental step: nothing was verified
		case r.SpecAccepted < 0:
			// a failed verification: no accept length to record
		default:
			verifs++
			accepted += uint64(r.SpecAccepted)
		}
	}
	now := s.clock()
	s.mu.Lock()
	s.iterations++
	s.tokens += toks
	s.verifications += verifs
	s.specAccepted += accepted
	if policyOn {
		if rec.PolicyMode == policy.Throughput.String() {
			s.polThrIters++
		} else {
			s.polLatIters++
		}
		s.polBudget = polBudget
	}
	s.recentT.Add(now.Sub(s.started).Seconds())
	s.recentC.Add(float64(s.tokens))
	s.mu.Unlock()
}

// setActive refreshes the active-slot count and the KV-cache footprint
// of the surviving requests — after retirements, so freed bytes are
// visible immediately.
func (s *serveState) setActive(active []*reqState) {
	var kv int64
	for _, st := range active {
		kv += sessionCacheBytes(st.llm)
	}
	s.mu.Lock()
	s.activeReqs = len(active)
	s.kvBytes = kv
	s.mu.Unlock()
}
