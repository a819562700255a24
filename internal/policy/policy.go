// Package policy implements the per-request, per-iteration speculation
// policy engine (ROADMAP item 4, SPIN-style heterogeneous scheduling).
// The paper's §3 leaves dynamic token-tree expansion as future work and
// keeps tree shape and SSM choice static per serving run; SPIN shows the
// largest serving wins come from choosing *how hard to speculate* per
// request per iteration. The controller here decides, for every request
// at every iteration boundary:
//
//   - the tree expansion shape (a tree.Budget: node budget, depth,
//     fanout) handed to the speculator's best-first grower, and
//   - how many SSMs of the ensemble to run for that request,
//
// driven by three signals:
//
//   - an EWMA of the request's measured accept length
//     (each core.ReqIter's SpecAccepted feeds Observe), seeded from an
//     engine-wide EWMA once one exists — the drafter/LLM pair is shared,
//     so a new request starts from what the engine already knows,
//   - the current admission-queue depth: the backlog the engine's
//     scheduler loop reports (the Submit queue under Serve, arrived
//     but unadmitted requests under RunOnline, none under Run), and
//   - batch occupancy (active requests vs. MaxBatch slots).
//
// Mode rule: when the queue is at or past a high-water mark of 4 — or
// the batch is full — verification FLOPs are the contended resource, so
// speculation narrows (throughput mode: wasted tree nodes
// cost other requests' latency). Otherwise the batch is underfull and
// tree verification rides along nearly free with the batched pass, so
// speculation deepens (latency mode). Within the mode's budget ceiling
// each request's node and depth budget scales with its own measured
// accept length: a request whose drafts are mostly rejected gets a
// shallow tree regardless of mode, because nodes past the expected
// accept point are FLOPs spent on tokens that will be thrown away.
//
// Measured pricing: the rule above never refuses to speculate, yet on
// hardware where verifying K tree rows costs about K decodes (DESIGN.md
// §19) a losing tree is slower than plain decoding. A Chooser prices
// step shapes from measured costs: it cuts a ceiling shape to each
// depth and grants the depth, or zero (an incremental step), expected
// to commit the most tokens per second of measured step time. A live
// engine prices every speculating request's steps with one; under the
// rule, the ceiling it cuts is the rule's budget.
//
// The package depends on nothing but the leaf tree package: decisions
// are pure functions of (EWMAs, queue, occupancy, cost estimates) so
// the engine can compute them serially before its worker pool and stay
// deterministic for any Workers setting.
package policy

import (
	"fmt"
	"math"
	"sync"

	"specinfer/internal/tree"
)

// Mode is the operating point a decision targets.
type Mode int

const (
	// Latency mode speculates deep: the batch is underfull, so tree
	// verification is nearly free and longer accepted runs cut
	// per-request latency.
	Latency Mode = iota
	// Throughput mode speculates narrow: verification FLOPs are
	// contended (full batch and/or deep queue), so speculative waste
	// directly displaces other requests' work.
	Throughput
)

func (m Mode) String() string {
	if m == Throughput {
		return "throughput"
	}
	return "latency"
}

// Decision is one request-iteration's speculation plan.
type Decision struct {
	Mode Mode
	// Budget is the expansion envelope for this request this iteration
	// (MaxNodes >= 1): what a step drafts whole offline, and the ceiling
	// a live engine's Chooser cuts.
	Budget tree.Budget
	// SSMs is how many models of the ensemble to run (clamped by the
	// engine to the pool size; 0 = all of them).
	SSMs int
}

// Config parameterizes the controller. The zero value is usable: every
// field defaults to the documented value via validation-time filling.
type Config struct {
	// InitAcceptLen seeds a request's EWMA before its first
	// verification (a fresh request has no measurement yet). Defaults
	// to 2 — mildly optimistic, so new requests get a real tree and the
	// EWMA corrects within a few iterations.
	InitAcceptLen float64
	// Latency and Throughput are the per-mode budget ceilings.
	// Latency defaults to {MaxNodes: 16, MaxDepth: 8, FanoutCap: 3};
	// Throughput defaults to {MaxNodes: 2, MaxDepth: 2, FanoutCap: 1}.
	Latency, Throughput tree.Budget
	// NodesPerAccept converts a request's expected accept length into
	// its node budget: nodes = ceil((ewma+1) * NodesPerAccept), clamped
	// to the mode ceiling. Defaults to 2 — roughly fanout-2 coverage
	// along the expected accepted path plus the bonus position.
	NodesPerAccept float64
}

// Constants of the rule.
const (
	// queueHighWater is the admission-queue depth at or above which the
	// controller switches to throughput mode.
	queueHighWater = 4
	// alpha is the EWMA decay for per-request accept length:
	// ewma = (1-alpha)*ewma + alpha*observed.
	alpha = 0.3
	// latencySSMs and throughputSSMs bound how many ensemble members
	// run per mode: 0 means all of them.
	latencySSMs, throughputSSMs = 0, 1
)

func (c Config) withDefaults() Config {
	if c.InitAcceptLen == 0 {
		c.InitAcceptLen = 2
	}
	if c.Latency == (tree.Budget{}) {
		c.Latency = tree.Budget{MaxNodes: 16, MaxDepth: 8, FanoutCap: 3}
	}
	if c.Throughput == (tree.Budget{}) {
		c.Throughput = tree.Budget{MaxNodes: 2, MaxDepth: 2, FanoutCap: 1}
	}
	if c.NodesPerAccept == 0 {
		c.NodesPerAccept = 2
	}
	return c
}

func (c Config) validate() error {
	if c.InitAcceptLen < 0 {
		return fmt.Errorf("policy: negative InitAcceptLen %v", c.InitAcceptLen)
	}
	if c.NodesPerAccept < 0 {
		return fmt.Errorf("policy: negative NodesPerAccept %v", c.NodesPerAccept)
	}
	for _, b := range []struct {
		name string
		b    tree.Budget
	}{{"Latency", c.Latency}, {"Throughput", c.Throughput}} {
		if b.b.MaxNodes < 0 || b.b.MaxDepth < 0 || b.b.FanoutCap < 0 || b.b.MinPathProb < 0 {
			return fmt.Errorf("policy: negative %s budget field: %+v", b.name, b.b)
		}
	}
	return nil
}

// Constants of measured pricing. They are deliberately not
// configuration: the chooser prices its own decisions from
// measurements, and these only set how fast the estimates forget.
const (
	// poolAlpha is the EWMA decay of the engine-wide accept length that
	// seeds new requests (slower than alpha: it pools every request).
	poolAlpha = 0.1
	// zeroCostAlpha is the EWMA decay of the zero-budget step cost.
	zeroCostAlpha = 0.1
	// specCostDecay is the per-observation decay of the speculative
	// step-cost fit: about the last ten speculative steps carry it.
	specCostDecay = 0.9
	// maxProbeBackoff caps the steps below the ceiling the engine takes
	// between probes of the ceiling shape, and is also how many
	// speculative steps it takes between zero-budget steps that keep
	// the zero-step cost fresh while speculation wins.
	maxProbeBackoff = 128
	// outlierCap bounds one cost sample at this multiple of the current
	// estimate. Timing noise on a shared host (preemption, GC, page
	// faults) only ever lengthens a step, and one long sample would
	// otherwise skew the comparison for many steps.
	outlierCap = 2
)

// Stats is a snapshot of the controller's decision counters, the
// backing data of the /metricz policy block.
type Stats struct {
	// LatencyDecisions / ThroughputDecisions count per-request
	// decisions made in each mode over the controller's lifetime.
	LatencyDecisions, ThroughputDecisions uint64
	// TrackedRequests is the number of requests with live acceptance
	// or probe history (bounded by the active batch once retire hooks
	// run).
	TrackedRequests int
}

// reqTrack is one request's history.
type reqTrack struct {
	ewma float64 // accept-length EWMA
}

// mean is an exponentially weighted mean with no prior: until the
// first sample it is undefined, and after k samples it is the
// exponentially weighted average of exactly those samples.
type mean struct{ num, den float64 }

func (m *mean) add(x, alpha float64) {
	m.num = (1-alpha)*m.num + alpha*x
	m.den = (1-alpha)*m.den + alpha
}

func (m mean) value() (float64, bool) {
	if m.den == 0 {
		return 0, false
	}
	return m.num / m.den, true
}

// Controller holds per-request acceptance history and the engine-wide
// acceptance estimate, and produces the rule's decisions. It is safe
// for concurrent use; the engine calls Track, Decide and Observe
// serially from its scheduler goroutine and Retire from retirement
// paths, while stats readers may snapshot concurrently.
type Controller struct {
	cfg Config

	mu   sync.Mutex
	reqs map[int]*reqTrack // guarded by mu — per-request history
	pool mean              // guarded by mu — engine-wide accept length
	lat  uint64            // guarded by mu — latency-mode decision count
	thr  uint64            // guarded by mu — throughput-mode decision count
}

// NewController validates the configuration and returns a controller.
func NewController(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, reqs: make(map[int]*reqTrack)}, nil
}

// Config returns the controller's effective configuration.
func (c *Controller) Config() Config { return c.cfg }

// ModeFor applies the mode-switch rule alone: throughput when the
// queue is at or past the high-water mark, or when the batch is full;
// latency otherwise. A full batch is contended even with an empty
// queue — at full occupancy the verification pass runs deep in its
// compute-bound region, where every speculated position costs real
// time, so narrow trees drain the batch faster (and the requests are
// throughput-bound anyway). Exposed separately so the engine can stamp
// one mode per iteration (the inputs are shared by every request of
// the batch).
func (c *Controller) ModeFor(queueLen, active, maxBatch int) Mode {
	if queueLen >= queueHighWater {
		return Throughput
	}
	if maxBatch > 0 && active >= maxBatch {
		return Throughput
	}
	return Latency
}

// Decide returns the speculation plan for one request this iteration
// under the rule alone — it never grants a zero budget. It is a pure
// function of the request's EWMA (or, for a request with no history,
// the engine-wide seed) and the shared (queueLen, active, maxBatch)
// signals — no randomness, no clock — so identical traces yield
// identical decisions regardless of engine worker counts.
func (c *Controller) Decide(reqID, queueLen, active, maxBatch int) Decision {
	mode := c.ModeFor(queueLen, active, maxBatch)
	c.mu.Lock()
	defer c.mu.Unlock()
	ew := c.seedLocked()
	if t, ok := c.reqs[reqID]; ok {
		ew = t.ewma
	}
	c.countLocked(mode)
	return c.rule(mode, ew)
}

// Track starts the request's history now, seeded from the engine-wide
// estimate, unless it has one: Decide then reads the request's own
// EWMA. A live engine tracks every request from its first decision;
// without Track, history starts at the request's first Observe, and
// until then Decide reads the engine-wide estimate as it moves.
func (c *Controller) Track(reqID int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trackLocked(reqID)
}

// rule maps a mode and an accept-length estimate to the mode's budget.
func (c *Controller) rule(mode Mode, ew float64) Decision {
	ceiling, ssms := c.cfg.Latency, latencySSMs
	if mode == Throughput {
		ceiling, ssms = c.cfg.Throughput, throughputSSMs
	}
	// Scale the node and depth budget by the request's expected accept
	// length: tree mass past the expected accept point is verification
	// work spent on tokens that will be rejected.
	nodes := int(math.Ceil((ew + 1) * c.cfg.NodesPerAccept))
	nodes = clamp(nodes, 1, ceiling.MaxNodes)
	depth := clamp(int(math.Ceil(ew))+1, 1, ceiling.MaxDepth)
	return Decision{
		Mode: mode,
		Budget: tree.Budget{
			MaxNodes:    nodes,
			MaxDepth:    depth,
			FanoutCap:   ceiling.FanoutCap,
			MinPathProb: ceiling.MinPathProb,
		},
		SSMs: ssms,
	}
}

//lint:holds c.mu
func (c *Controller) countLocked(mode Mode) {
	if mode == Throughput {
		c.thr++
	} else {
		c.lat++
	}
}

// seedLocked is a new request's starting accept length: the
// engine-wide EWMA once any verification has been observed, else
// InitAcceptLen.
//
//lint:holds c.mu
func (c *Controller) seedLocked() float64 {
	if v, ok := c.pool.value(); ok {
		return v
	}
	return c.cfg.InitAcceptLen
}

//lint:holds c.mu
func (c *Controller) trackLocked(reqID int) *reqTrack {
	t, ok := c.reqs[reqID]
	if !ok {
		t = &reqTrack{ewma: c.seedLocked()}
		c.reqs[reqID] = t
	}
	return t
}

// Observe folds one measured accept length (the request's
// ReqIter.SpecAccepted) into the request's EWMA and the engine-wide one.
// Negative values — the engine's failed-verification sentinel — are
// ignored; the engine does not call it for zero-budget steps, which
// verify nothing.
func (c *Controller) Observe(reqID, accepted int) {
	if accepted < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.trackLocked(reqID)
	t.ewma = (1-alpha)*t.ewma + alpha*float64(accepted)
	c.pool.add(float64(accepted), poolAlpha)
}

// Retire drops a request's history. The engine calls it at every
// retirement path so the history map stays bounded by the active batch
// instead of growing with the lifetime request count.
func (c *Controller) Retire(reqID int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.reqs, reqID)
}

// Tracked reports how many requests currently have history (the
// retire-leak regression probe).
func (c *Controller) Tracked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.reqs)
}

// Stats snapshots the decision counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		LatencyDecisions:    c.lat,
		ThroughputDecisions: c.thr,
		TrackedRequests:     len(c.reqs),
	}
}

func clamp(v, lo, hi int) int {
	if hi > 0 && v > hi {
		v = hi
	}
	if v < lo {
		v = lo
	}
	return v
}
