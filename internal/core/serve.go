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
// reports its partial generation.
type Result struct {
	RequestResult
	// Err is nil on normal completion (budget or EOS reached). A
	// request retired early carries the reason: context.Canceled,
	// context.DeadlineExceeded, ErrDraining, or ErrDrainTimeout.
	Err error
	// QueueDelay is the wall-clock time from Submit to slot admission.
	QueueDelay time.Duration
	// Latency is the wall-clock time from Submit to retirement.
	Latency time.Duration
}

// liveReq is the scheduler-side handle of one submitted request.
type liveReq struct {
	ctx context.Context
	req workload.Request
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

// stream sends any newly committed tokens to the consumer.
func (lr *liveReq) stream(out []model.Token) {
	for _, tok := range out[lr.streamed:] {
		lr.tokens <- tok
	}
	lr.streamed = len(out)
}

// finish streams any remaining tokens, delivers the Result, and closes
// both channels. Must be called exactly once.
func (lr *liveReq) finish(res Result) {
	lr.stream(res.Output)
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
	// polSteps counts request-steps the policy decided and polZero
	// those it floored to a zero budget (incremental steps).
	polSteps uint64 // guarded by mu
	polZero  uint64 // guarded by mu
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
	// request per iteration in the speculative modes, except the
	// policy's zero-budget steps, which verify nothing) and
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
	// requests (Config.LatencyWindow of them), in seconds.
	Latency, QueueDelay metrics.Summary
	// LatencySamples and QueueDelaySamples are the raw retained samples
	// behind the two summaries, exported so a multi-replica rollup can
	// merge per-replica windows into exact fleet-wide quantiles
	// (metrics.Merge) instead of averaging per-replica percentiles.
	LatencySamples, QueueDelaySamples metrics.Snapshot
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
	// the active batch once retire hooks run). PolicySteps counts the
	// request-steps the policy decided and PolicyZeroSteps those it
	// floored to a zero budget — incremental steps taken because
	// speculation was measured not to pay.
	PolicyEnabled                             bool
	PolicyLatencyIters, PolicyThroughputIters uint64
	PolicySpecBudget                          int
	PolicyTrackedRequests                     int
	PolicySteps, PolicyZeroSteps              uint64
}

// Serve runs the live scheduler loop until ctx is cancelled and the
// engine has drained. It owns iteration-level scheduling for requests
// arriving through Submit: each pass admits queued requests into free
// continuous-batching slots, retires cancelled or expired requests at
// the iteration boundary (releasing their sessions and KV pages), steps
// the active batch once, streams newly committed tokens, and retires
// finished requests.
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
		latency:    metrics.NewWindow(e.cfg.LatencyWindow),
		queueDelay: metrics.NewWindow(e.cfg.LatencyWindow),
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

	var active []*reqState
	draining := false
	var drainDeadline time.Time

	for {
		// Enter draining at the first sign of shutdown. Queued-but-
		// unadmitted requests are retired with ErrDraining right here,
		// not when the loop exits: their clients should see the 503
		// immediately, not after the longest in-flight request finishes.
		if !draining && ctx.Err() != nil {
			draining = true
			s.setDraining()
			e.rejectQueued(s)
			if e.cfg.DrainTimeout > 0 {
				drainDeadline = s.clock().Add(e.cfg.DrainTimeout)
			}
		}

		// Admission: fill free slots from the queue without blocking
		// (iteration-level scheduling — new requests join as soon as a
		// slot frees up, not when the batch drains). Dead-context
		// requests are swept out of the queue first so they never hold
		// a queue slot against live submitters (a full-but-dead queue
		// would bounce Submit with spurious ErrQueueFull).
		if !draining {
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

		if len(active) == 0 {
			if draining {
				break // in-flight work done; leftovers in the queue are rejected by stopServing
			}
			s.setActive(active)
			// Idle: block until a request arrives or shutdown starts.
			select {
			case lr := <-s.admit:
				if st := e.admitLive(s, lr); st != nil {
					active = append(active, st)
				}
			case <-ctx.Done():
			}
			continue
		}

		// Retire cancelled and deadline-expired requests at the
		// iteration boundary, before paying for their step.
		active = e.sweepCancelled(s, active)

		// Hard drain bound: abort whatever is still in flight.
		if draining && !drainDeadline.IsZero() && !s.clock().Before(drainDeadline) {
			for _, st := range active {
				e.finishLive(s, st, ErrDrainTimeout)
			}
			active = nil
		}
		if len(active) == 0 {
			s.setActive(active)
			continue
		}

		rec := e.runIteration(active, e.cfg.Clock)
		s.recordIteration(rec)

		// Stream newly committed tokens; retire finished requests.
		var still []*reqState
		for _, st := range active {
			if st.done {
				e.finishLive(s, st, st.verr)
			} else {
				st.live.stream(st.res.Output)
				still = append(still, st)
			}
		}
		active = still
		s.setActive(active)
	}
	return nil
}

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
		LatencySamples:     s.latency.Snapshot(),
		QueueDelaySamples:  s.queueDelay.Snapshot(),

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
		st.PolicySteps = s.polSteps
		st.PolicyZeroSteps = s.polZero
	}
	return st
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

// admitLive moves a queued request into a batching slot: prefill both
// sessions and record its admission time. A request whose context is
// already dead is retired immediately instead.
func (e *Engine) admitLive(s *serveState, lr *liveReq) *reqState {
	if err := lr.ctx.Err(); err != nil {
		s.mu.Lock()
		s.canceled++
		s.mu.Unlock()
		lr.finish(Result{
			RequestResult: RequestResult{ID: lr.req.ID, PromptLen: len(lr.req.Prompt)},
			Err:           err,
			Latency:       s.clock().Sub(lr.submitted),
		})
		return nil
	}
	lr.started = s.clock()
	st := e.admit(lr.req)
	st.live = lr
	return st
}

// sweepCancelled retires every active request whose context has been
// cancelled or has expired, releasing its session (and thereby its KV
// pages) before the next iteration is paid for.
func (e *Engine) sweepCancelled(s *serveState, active []*reqState) []*reqState {
	still := active[:0]
	for _, st := range active {
		if err := st.live.ctx.Err(); err != nil {
			e.finishLive(s, st, err)
		} else {
			still = append(still, st)
		}
	}
	return still
}

// finishLive retires one live request: release its sessions, deliver
// the Result, and record its latency.
func (e *Engine) finishLive(s *serveState, st *reqState, err error) {
	e.release(st)
	now := s.clock()
	res := Result{
		RequestResult: st.res,
		Err:           err,
		QueueDelay:    st.live.started.Sub(st.live.submitted),
		Latency:       now.Sub(st.live.submitted),
	}
	s.mu.Lock()
	if err == nil {
		s.completed++
	} else {
		s.canceled++
	}
	s.latency.Add(res.Latency.Seconds())
	s.queueDelay.Add(res.QueueDelay.Seconds())
	s.mu.Unlock()
	st.live.finish(res)
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
	s.canceled += uint64(len(dead))
	s.mu.Unlock()
	for _, lr := range dead {
		lr.finish(Result{
			RequestResult: RequestResult{ID: lr.req.ID, PromptLen: len(lr.req.Prompt)},
			Err:           lr.ctx.Err(),
			Latency:       s.clock().Sub(lr.submitted),
		})
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
	s.canceled += uint64(len(queued))
	s.mu.Unlock()
	for _, lr := range queued {
		lr.finish(Result{
			RequestResult: RequestResult{ID: lr.req.ID, PromptLen: len(lr.req.Prompt)},
			Err:           ErrDraining,
			Latency:       s.clock().Sub(lr.submitted),
		})
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
			s.mu.Lock()
			s.canceled++
			s.mu.Unlock()
			lr.finish(Result{
				RequestResult: RequestResult{ID: lr.req.ID, PromptLen: len(lr.req.Prompt)},
				Err:           ErrDraining,
				Latency:       s.clock().Sub(lr.submitted),
			})
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
	var toks uint64
	for _, c := range rec.Committed {
		toks += uint64(c)
	}
	var verifs, accepted, zero uint64
	for i, a := range rec.SpecAccepted {
		if a < 0 {
			continue // failed verification: no accept length to record
		}
		if rec.PolicyNodes != nil && rec.PolicyNodes[i] == 0 {
			zero++ // zero-budget step: nothing was verified
			continue
		}
		verifs++
		accepted += uint64(a)
	}
	var polBudget int
	for _, n := range rec.PolicyNodes {
		polBudget += n
	}
	now := s.clock()
	s.mu.Lock()
	s.iterations++
	s.tokens += toks
	s.verifications += verifs
	s.specAccepted += accepted
	if rec.PolicyMode != "" {
		if rec.PolicyMode == policy.Throughput.String() {
			s.polThrIters++
		} else {
			s.polLatIters++
		}
		s.polBudget = polBudget
		s.polSteps += uint64(len(rec.PolicyNodes))
		s.polZero += zero
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
