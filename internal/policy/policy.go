// Package policy implements the per-request, per-iteration speculation
// policy engine (ROADMAP item 4, SPIN-style heterogeneous scheduling).
// The paper's §3 leaves dynamic token-tree expansion as future work and
// keeps tree shape and SSM choice static per serving run; SPIN shows the
// largest serving wins come from choosing *how hard to speculate* per
// request per iteration. The controller here decides, for every request
// at every iteration boundary:
//
//   - the tree expansion shape (node budget, depth, fanout) handed to
//     the best-first adaptive grower, and
//   - how many SSMs of the ensemble to run for that request,
//
// driven by three signals:
//
//   - an EWMA of the request's measured accept length
//     (core.IterationRecord.SpecAccepted feeds Observe), seeded from an
//     engine-wide EWMA once one exists — the drafter/LLM pair is shared,
//     so a new request starts from what the engine already knows,
//   - the current admission-queue depth (core.Engine.QueueLen), and
//   - batch occupancy (active requests vs. MaxBatch slots).
//
// Mode rule: when the queue is at or past QueueHighWater — or the batch
// is full — verification FLOPs are the contended resource, so
// speculation narrows (throughput mode: wasted tree nodes
// cost other requests' latency). Otherwise the batch is underfull and
// tree verification rides along nearly free with the batched pass, so
// speculation deepens (latency mode). Within the mode's budget ceiling
// each request's node and depth budget scales with its own measured
// accept length: a request whose drafts are mostly rejected gets a
// shallow tree regardless of mode, because nodes past the expected
// accept point are FLOPs spent on tokens that will be thrown away.
//
// Zero-budget floor: the rule above never refuses to speculate, yet on
// hardware where verifying K tree rows costs about K decodes (DESIGN.md
// §19) a losing tree is slower than plain decoding. When the engine
// feeds measured step costs (ObserveCost), DecideMeasured compares the
// rule's budget against a budget of zero — an incremental step — by
// expected committed tokens per second of measured step time, and
// picks the better. Floored requests re-probe the rule's budget on a
// deterministic exponential backoff so a change of regime is noticed.
//
// The package is dependency-free on purpose: decisions are pure
// functions of (EWMAs, queue, occupancy, cost estimates) so the engine
// can compute them serially before its worker pool and stay
// deterministic for any Workers setting.
package policy

import (
	"fmt"
	"math"
	"sync"
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

// Budget is a tree expansion shape: the node/depth/fanout envelope
// handed to the adaptive best-first grower. It mirrors
// speculator.AdaptiveConfig without importing it, keeping this package
// dependency-free.
type Budget struct {
	// MaxNodes is the speculated-node budget per tree.
	MaxNodes int
	// MaxDepth bounds speculation depth.
	MaxDepth int
	// FanoutCap bounds children per node.
	FanoutCap int
	// MinPathProb prunes candidates below this SSM path probability;
	// 0 disables pruning.
	MinPathProb float64
}

// Decision is one request-iteration's speculation plan.
type Decision struct {
	Mode Mode
	// Budget is the expansion envelope for this request this iteration.
	// MaxNodes 0 (only DecideMeasured grants it) means "do not
	// speculate": the engine takes an incremental step — sample from
	// the LLM's last distribution, one Decode — with no tree, no
	// verifier and no SSM forward; the SSM sessions catch up on the
	// skipped tokens in one batched pass the next time the request
	// speculates.
	Budget Budget
	// SSMs is how many models of the ensemble to run (clamped by the
	// engine to the pool size; >= 1 whenever Budget.MaxNodes > 0, 0 on
	// a zero-budget step).
	SSMs int
}

// Config parameterizes the controller. The zero value is usable: every
// field defaults to the documented value via validation-time filling.
type Config struct {
	// QueueHighWater is the admission-queue depth at or above which the
	// controller switches to throughput mode. Defaults to 4.
	QueueHighWater int
	// Alpha is the EWMA decay for per-request accept length:
	// ewma = (1-Alpha)*ewma + Alpha*observed. Defaults to 0.3.
	Alpha float64
	// InitAcceptLen seeds a request's EWMA before its first
	// verification (a fresh request has no measurement yet). Defaults
	// to 2 — mildly optimistic, so new requests get a real tree and the
	// EWMA corrects within a few iterations.
	InitAcceptLen float64
	// Latency and Throughput are the per-mode budget ceilings.
	// Latency defaults to {MaxNodes: 16, MaxDepth: 8, FanoutCap: 3};
	// Throughput defaults to {MaxNodes: 2, MaxDepth: 2, FanoutCap: 1}.
	Latency, Throughput Budget
	// LatencySSMs / ThroughputSSMs bound how many ensemble members run
	// per mode. 0 means "all available" for latency and 1 for
	// throughput.
	LatencySSMs, ThroughputSSMs int
	// NodesPerAccept converts a request's expected accept length into
	// its node budget: nodes = ceil((ewma+1) * NodesPerAccept), clamped
	// to the mode ceiling. Defaults to 2 — roughly fanout-2 coverage
	// along the expected accepted path plus the bonus position.
	NodesPerAccept float64
}

func (c Config) withDefaults() Config {
	if c.QueueHighWater == 0 {
		c.QueueHighWater = 4
	}
	if c.Alpha == 0 {
		c.Alpha = 0.3
	}
	if c.InitAcceptLen == 0 {
		c.InitAcceptLen = 2
	}
	if c.Latency == (Budget{}) {
		c.Latency = Budget{MaxNodes: 16, MaxDepth: 8, FanoutCap: 3}
	}
	if c.Throughput == (Budget{}) {
		c.Throughput = Budget{MaxNodes: 2, MaxDepth: 2, FanoutCap: 1}
	}
	if c.ThroughputSSMs == 0 {
		c.ThroughputSSMs = 1
	}
	if c.NodesPerAccept == 0 {
		c.NodesPerAccept = 2
	}
	return c
}

func (c Config) validate() error {
	if c.QueueHighWater < 0 {
		return fmt.Errorf("policy: negative QueueHighWater %d", c.QueueHighWater)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("policy: Alpha %v outside [0,1]", c.Alpha)
	}
	if c.InitAcceptLen < 0 {
		return fmt.Errorf("policy: negative InitAcceptLen %v", c.InitAcceptLen)
	}
	if c.NodesPerAccept < 0 {
		return fmt.Errorf("policy: negative NodesPerAccept %v", c.NodesPerAccept)
	}
	for _, b := range []struct {
		name string
		b    Budget
	}{{"Latency", c.Latency}, {"Throughput", c.Throughput}} {
		if b.b.MaxNodes < 0 || b.b.MaxDepth < 0 || b.b.FanoutCap < 0 || b.b.MinPathProb < 0 {
			return fmt.Errorf("policy: negative %s budget field: %+v", b.name, b.b)
		}
	}
	if c.LatencySSMs < 0 || c.ThroughputSSMs < 0 {
		return fmt.Errorf("policy: negative SSM bound (%d, %d)", c.LatencySSMs, c.ThroughputSSMs)
	}
	return nil
}

// Constants of the measured-cost floor. They are deliberately not
// configuration: the floor prices its own decisions from measurements,
// and these only set how fast the estimates forget.
const (
	// poolAlpha is the EWMA decay of the engine-wide accept length that
	// seeds new requests (slower than Alpha: it pools every request).
	poolAlpha = 0.1
	// zeroCostAlpha is the EWMA decay of the zero-budget step cost.
	zeroCostAlpha = 0.1
	// specCostDecay is the per-observation decay of the speculative
	// step-cost fit: about the last ten speculative steps carry it.
	specCostDecay = 0.9
	// maxProbeBackoff caps the zero-budget steps the engine takes
	// between probes of the rule's budget, and is also how many
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
	// ZeroDecisions counts decisions (of either mode) that granted a
	// zero budget: an incremental step instead of a speculative one.
	ZeroDecisions uint64
	// TrackedRequests is the number of requests with live acceptance
	// or probe history (bounded by the active batch once retire hooks
	// run).
	TrackedRequests int
}

// reqTrack is one request's history.
type reqTrack struct {
	ewma float64 // accept-length EWMA
	// probed marks that the request's last speculative step was a probe
	// out of the floor, to be judged at its next decision by its own
	// outcome: lastAccepted tokens accepted in lastCost seconds.
	probed       bool
	lastAccepted int
	lastCost     float64
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

// costFit is an exponentially decayed least-squares fit of step cost
// c(n) = a + b·n over speculated-node budgets n.
type costFit struct{ w, n, nn, c, nc float64 }

func (f *costFit) add(n, c float64) {
	f.w = specCostDecay*f.w + 1
	f.n = specCostDecay*f.n + n
	f.nn = specCostDecay*f.nn + n*n
	f.c = specCostDecay*f.c + c
	f.nc = specCostDecay*f.nc + n*c
}

// at predicts the cost of an n-node step. Step costs cannot have a
// negative slope or intercept, so the fit is constrained to a, b >= 0:
// with too little spread in the observed budgets to fit a slope, or a
// negative one, it falls back to the weighted mean cost; with a
// negative intercept, to the proportional fit c(n) = b·n.
func (f costFit) at(n float64) (float64, bool) {
	if f.w == 0 {
		return 0, false
	}
	mn, mc := f.n/f.w, f.c/f.w
	b := 0.0
	if v := f.nn/f.w - mn*mn; v > 1e-9 {
		b = (f.nc/f.w - mn*mc) / v
	}
	switch a := mc - b*mn; {
	case b <= 0:
		return mc, true
	case a < 0:
		return f.nc / f.nn * n, true
	default:
		return a + b*n, true
	}
}

// Controller holds per-request acceptance history, the engine-wide
// acceptance and step-cost estimates, and produces decisions. It is
// safe for concurrent use; the engine calls Decide/DecideMeasured/
// Observe/ObserveCost serially from its scheduler goroutine and Retire
// from retirement paths, while stats readers may snapshot concurrently.
type Controller struct {
	cfg Config

	mu   sync.Mutex
	reqs map[int]*reqTrack // guarded by mu — per-request history
	pool mean              // guarded by mu — engine-wide accept length
	// zeroCost is the EWMA of measured zero-budget step seconds and
	// specCost the fit of speculative step seconds over budgets.
	zeroCost mean    // guarded by mu
	specCost costFit // guarded by mu
	// zeroRun counts zero-budget decisions since the last probe, and
	// backoff is how many the engine takes before the next floored
	// request probes: it doubles on a losing probe (up to
	// maxProbeBackoff) and resets to 1 on a winning one. Both are
	// engine-wide, like the evidence a probe refreshes, so exploration
	// is rationed per step served and does not restart with every
	// short request.
	zeroRun int // guarded by mu
	backoff int // guarded by mu
	// specRun counts speculative decisions the estimates chose since
	// the last zero-budget step: every maxProbeBackoff of them one step
	// is taken at zero instead, so the zero-step cost — otherwise
	// measured only while floored — cannot go stale.
	specRun int    // guarded by mu
	lat     uint64 // guarded by mu — latency-mode decision count
	thr     uint64 // guarded by mu — throughput-mode decision count
	zero    uint64 // guarded by mu — zero-budget decision count
}

// NewController validates the configuration and returns a controller.
func NewController(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, reqs: make(map[int]*reqTrack), backoff: 1}, nil
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
	if queueLen >= c.cfg.QueueHighWater {
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

// DecideMeasured is Decide with the zero-budget floor: it grants the
// rule's budget or zero, whichever gives more expected committed
// tokens per second of measured step time — (1 + accept EWMA) tokens
// at the fitted cost of the rule's budget against one token at the
// zero-step cost. Until both kinds of step have been measured it
// bootstraps: zero first (measuring the zero-step cost), then the
// rule's budget. Once the engine has taken backoff zero-budget steps
// since its last probe, the next floored request probes the rule's
// budget instead; that request's next decision judges the probe by its
// own measured outcome, resetting the backoff on a win (the probe
// committed tokens faster than zero steps do) and doubling it (up to
// maxProbeBackoff) on a loss. Symmetrically, while speculation wins,
// one decision in maxProbeBackoff+1 is zero to re-measure the
// zero-step cost. Like Decide it is a pure function of the
// controller's state and its arguments.
func (c *Controller) DecideMeasured(reqID, queueLen, active, maxBatch int) Decision {
	mode := c.ModeFor(queueLen, active, maxBatch)
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.trackLocked(reqID)
	c.countLocked(mode)
	d := c.rule(mode, t.ewma)
	zero := Decision{Mode: mode}

	c0, ok0 := c.zeroCost.value()
	cn, okn := c.specCost.at(float64(d.Budget.MaxNodes))
	switch {
	case !ok0:
		c.zero++
		return zero
	case !okn:
		return d
	}
	if t.probed {
		t.probed = false
		if float64(1+t.lastAccepted)*c0 > t.lastCost {
			c.backoff = 1
		} else if c.backoff < maxProbeBackoff {
			c.backoff *= 2
		}
	}
	if (1+t.ewma)*c0 > cn {
		if c.specRun < maxProbeBackoff {
			c.specRun++
			return d
		}
		c.specRun = 0
		c.zero++
		return zero
	}
	if c.zeroRun >= c.backoff {
		c.zeroRun = 0
		t.probed = true
		return d
	}
	c.zeroRun++
	c.zero++
	return zero
}

// rule maps a mode and an accept-length estimate to the mode's budget.
func (c *Controller) rule(mode Mode, ew float64) Decision {
	ceiling, ssms := c.cfg.Latency, c.cfg.LatencySSMs
	if mode == Throughput {
		ceiling, ssms = c.cfg.Throughput, c.cfg.ThroughputSSMs
	}
	// Scale the node and depth budget by the request's expected accept
	// length: tree mass past the expected accept point is verification
	// work spent on tokens that will be rejected.
	nodes := int(math.Ceil((ew + 1) * c.cfg.NodesPerAccept))
	nodes = clamp(nodes, 1, ceiling.MaxNodes)
	depth := clamp(int(math.Ceil(ew))+1, 1, ceiling.MaxDepth)
	return Decision{
		Mode: mode,
		Budget: Budget{
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

// Observe folds one measured accept length (IterationRecord.SpecAccepted
// for the request) into the request's EWMA and the engine-wide one.
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
	t.ewma = (1-c.cfg.Alpha)*t.ewma + c.cfg.Alpha*float64(accepted)
	t.lastAccepted = accepted
	c.pool.add(float64(accepted), poolAlpha)
}

// ObserveCost folds one measured step time of a request into the cost
// estimates: nodes is the speculated-node budget the step was granted
// (0 for a zero-budget step) and seconds its wall time, including any
// SSM catch-up it paid for. Non-positive times are ignored.
func (c *Controller) ObserveCost(reqID, nodes int, seconds float64) {
	if seconds <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.reqs[reqID]; ok {
		t.lastCost = seconds
	}
	if nodes <= 0 {
		if v, ok := c.zeroCost.value(); ok {
			seconds = math.Min(seconds, outlierCap*v)
		}
		c.zeroCost.add(seconds, zeroCostAlpha)
		return
	}
	if v, ok := c.specCost.at(float64(nodes)); ok {
		seconds = math.Min(seconds, outlierCap*v)
	}
	c.specCost.add(float64(nodes), seconds)
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
		ZeroDecisions:       c.zero,
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
