// Package core assembles SpecInfer's serving engine (§2, §5): a request
// manager with Orca-style continuous batching that, each iteration, runs
// the learning-based speculator to produce a token tree per request,
// scores the tree with one tree-based parallel decoding pass of the LLM,
// and verifies it with greedy or multi-step speculative sampling — plus
// the two baselines the paper evaluates against: plain incremental
// decoding and sequence-based speculative inference.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
	"specinfer/internal/verifier"
	"specinfer/internal/workload"
)

// Mode selects the serving strategy.
type Mode int

const (
	// Incremental is the baseline of existing systems: one token per LLM
	// step (Algorithm 1).
	Incremental Mode = iota
	// SequenceSpec is sequence-based speculative inference: a single SSM
	// proposes a width-1 token sequence.
	SequenceSpec
	// TreeSpec is SpecInfer: tree-based speculative inference and
	// verification.
	TreeSpec
)

func (m Mode) String() string {
	switch m {
	case Incremental:
		return "incremental"
	case SequenceSpec:
		return "sequence-spec"
	default:
		return "tree-spec"
	}
}

// Config configures an Engine.
type Config struct {
	Mode Mode
	// LLM is the large language model (the verifier).
	LLM model.Model
	// SSMs is the speculative model pool (ignored for Incremental).
	SSMs []model.Model
	// Expansion is the token tree expansion configuration for TreeSpec;
	// defaults to the paper's ⟨1,1,3,1,1,1,1,1⟩.
	Expansion tree.ExpansionConfig
	// SeqDepth is the speculation depth for SequenceSpec; defaults to 8.
	SeqDepth int
	// Sample is the decode policy applied to every request.
	Sample sampling.Config
	// MaxBatch bounds the number of concurrently served requests
	// (continuous batching slots); defaults to 8.
	MaxBatch int
	// Workers bounds the worker pool that runs an iteration's requests
	// concurrently (the data-parallel request loop of §5): first the
	// prefill phase, which prefills the LLM and SSM sessions of every
	// newly admitted request, then the step phase, in which each
	// request's SSM speculation + LLM tree verification is independent
	// of every other's. 0 means GOMAXPROCS; 1 forces serial prefill and
	// stepping. Output is bit-identical for every setting: per-request
	// RNG streams are split from Seed, sessions are per-request, results
	// are written to slot-indexed arrays, and every prefix-cache call
	// runs on the scheduler goroutine in slot order, so no observable
	// state — outputs, iteration records, cache hits and evictions —
	// depends on goroutine interleaving.
	Workers int
	// EOS is the end-of-sequence token id: generation stops once a step
	// commits it. Disabling is explicit: set NoEOS (-1), which is also
	// what withDefaults maps the zero value to, since a zero-initialized
	// Config must keep meaning "no EOS" (the synthetic workloads have no
	// natural EOS and the benchmarks run with it disabled, like the
	// paper's fixed 128-token generations). Because the zero value is
	// reserved for "unset", token id 0 — where real tokenizers commonly
	// place special tokens — is selected with UseZeroEOS instead.
	EOS model.Token
	// UseZeroEOS marks token id 0 as the EOS token, which the EOS field
	// alone cannot express (its zero value means "disabled"). Setting
	// both UseZeroEOS and a positive EOS is a configuration error.
	UseZeroEOS bool
	// Seed drives all engine randomness (per-request streams are split
	// from it, so results are independent of batch interleaving).
	Seed uint64
	// ForceTopK forces top-k expansion even under stochastic decoding
	// (see speculator.Config).
	ForceTopK bool
	// Verifier selects the stochastic verification algorithm: VerifierMSS
	// (multi-step speculative sampling, the paper's Algorithm 2 — the
	// default), VerifierTraversal (leaf-to-root subsequence acceptance,
	// lossless like MSS with >= expected accept length on the same tree),
	// or VerifierNaive (the naive-sampling ablation baseline of Table 3).
	// Ignored under greedy decoding, which always uses argmax descent.
	Verifier string
	// Adaptive, when non-nil, replaces the static expansion configuration
	// with dynamic best-first tree growth (the paper's stated future
	// work; see speculator.AdaptiveConfig). TreeSpec mode only; uses the
	// first SSM of the pool.
	Adaptive *speculator.AdaptiveConfig
	// Policy, when non-nil, enables the per-request, per-iteration
	// speculation policy engine (see internal/policy): each iteration
	// the controller picks every request's tree budget and SSM count
	// from its measured accept-length EWMA, the admission-queue depth,
	// and batch occupancy — deep trees when the batch is underfull
	// (latency mode), narrow speculation when verification is contended
	// (throughput mode). Under Serve each request's step is also timed
	// with Clock, and the controller floors a request's budget to zero
	// whenever an incremental step is expected to commit more tokens
	// per second than the speculative one; a zero-budget step samples
	// from the LLM's last distribution and decodes one token, with no
	// tree, verifier or SSM forward (DESIGN.md §19). The offline
	// Run/RunOnline paths measure nothing and never floor. TreeSpec
	// mode only; conflicts with Adaptive (the policy already drives the
	// adaptive grower, with a moving budget).
	Policy *policy.Config

	// PrefixCacheBytes, when positive, enables the cross-request prefix
	// KV cache: admissions look up the longest cached prefix of their
	// prompt and adopt its pages read-only instead of recomputing them,
	// and committed prompt pages are inserted for later requests (see
	// kvcache.PrefixCache). The value is the LRU eviction budget in
	// bytes. Output is bit-identical with the cache on or off; only
	// models whose sessions expose the paged arena (the transformer
	// substrate) participate — others prefill cold transparently. Zero
	// disables the cache.
	PrefixCacheBytes int64

	// QueueDepth bounds the live admission queue of Serve/Submit: once
	// MaxBatch slots are busy and QueueDepth requests are waiting,
	// Submit rejects with ErrQueueFull (backpressure). Defaults to 64.
	// Ignored by the offline Run/RunOnline paths.
	QueueDepth int
	// DrainTimeout bounds graceful drain: after Serve's context is
	// cancelled, requests still in flight past the timeout are retired
	// with ErrDrainTimeout. Zero waits for all in-flight requests to
	// finish, however long they take.
	DrainTimeout time.Duration
	// LatencyWindow is the number of recent completed requests whose
	// latency/queue-delay the live stats retain for quantiles (see
	// ServeStats). Defaults to 1024.
	LatencyWindow int
	// Clock supplies wall-clock time for live serving (queue-delay and
	// latency accounting in Serve/Submit, and the per-step costs the
	// speculation policy prices its decisions with). nil defaults to
	// the real clock. The offline Run/RunOnline paths never read it —
	// their determinism does not depend on this field.
	Clock func() time.Time
}

// NoEOS is the explicit "no end-of-sequence token" sentinel for
// Config.EOS: generation runs to each request's MaxNewTok budget.
const NoEOS model.Token = -1

// Stochastic verifier selectors for Config.Verifier.
const (
	// VerifierMSS is multi-step speculative sampling (Theorem 4.2).
	VerifierMSS = "mss"
	// VerifierNaive is the naive-sampling baseline (Theorem 4.3).
	VerifierNaive = "naive"
	// VerifierTraversal is leaf-to-root traversal verification.
	VerifierTraversal = "traversal"
)

// treeSpeculator is the lifecycle both the static and the adaptive
// speculators implement.
type treeSpeculator interface {
	Prefill(prompt []model.Token)
	Accept(tokens []model.Token)
	Speculate(rootTok model.Token) *tree.Tree
}

func (c Config) withDefaults() Config {
	if c.Expansion == nil {
		c.Expansion = tree.PaperDefault()
	}
	if c.SeqDepth == 0 {
		c.SeqDepth = 8
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	switch {
	case c.UseZeroEOS:
		c.EOS = 0
	case c.EOS <= 0:
		c.EOS = NoEOS // zero value = unset, negatives normalize to the sentinel
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.LatencyWindow == 0 {
		c.LatencyWindow = 1024
	}
	if c.Verifier == "" {
		c.Verifier = VerifierMSS
	}
	if c.Clock == nil {
		//lint:ignore nondeterminism live serving measures real wall-clock queueing/latency; the offline deterministic paths never read Clock
		c.Clock = time.Now
	}
	return c
}

func (c Config) validate() error {
	if c.LLM == nil {
		return fmt.Errorf("core: config requires an LLM")
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative Workers %d", c.Workers)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("core: negative QueueDepth %d", c.QueueDepth)
	}
	if c.DrainTimeout < 0 {
		return fmt.Errorf("core: negative DrainTimeout %v", c.DrainTimeout)
	}
	if c.PrefixCacheBytes < 0 {
		return fmt.Errorf("core: negative PrefixCacheBytes %d", c.PrefixCacheBytes)
	}
	if c.Mode != Incremental && len(c.SSMs) == 0 {
		return fmt.Errorf("core: %v mode requires at least one SSM", c.Mode)
	}
	switch c.Verifier {
	case VerifierMSS, VerifierNaive, VerifierTraversal:
	default:
		return fmt.Errorf("core: unknown verifier %q (want %s, %s or %s)",
			c.Verifier, VerifierMSS, VerifierNaive, VerifierTraversal)
	}
	if c.Policy != nil {
		if c.Mode != TreeSpec {
			return fmt.Errorf("core: Policy requires TreeSpec mode, got %v", c.Mode)
		}
		if c.Adaptive != nil {
			return fmt.Errorf("core: Policy conflicts with Adaptive (the policy already drives the adaptive grower); pick one")
		}
	}
	if msg := c.Expansion.Validate(); msg != "" {
		return fmt.Errorf("core: %s", msg)
	}
	if err := c.Sample.Validate(); err != nil {
		return err
	}
	for _, s := range c.SSMs {
		if s.VocabSize() != c.LLM.VocabSize() {
			return fmt.Errorf("core: SSM %s vocab %d != LLM vocab %d",
				s.Name(), s.VocabSize(), c.LLM.VocabSize())
		}
	}
	return nil
}

// RequestResult is the outcome and the per-request statistics every
// experiment consumes.
type RequestResult struct {
	ID     int
	Output []model.Token
	// Steps is the number of LLM decoding steps (verification passes for
	// speculative modes) the request needed.
	Steps int
	// CommittedPerStep[i] is how many tokens step i committed (including
	// the bonus token). For incremental decoding every entry is 1.
	CommittedPerStep []int
	// TreeNodesPerStep[i] is the number of speculated nodes verified at
	// step i (0 for incremental decoding) — the verification workload the
	// cost model prices.
	TreeNodesPerStep []int
	// PromptLen is the request's prompt length.
	PromptLen int
	// Err is non-nil when the request was retired by a serving error (for
	// the offline paths, a verifier error on a malformed speculated tree);
	// Output then holds whatever was committed before the failure.
	Err error
}

// AvgCommitted returns the request's average tokens per decoding step —
// the quantity Figures 9-10 and Tables 2-3 report.
func (r RequestResult) AvgCommitted() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(len(r.Output)) / float64(r.Steps)
}

// IterationRecord describes one engine iteration for the cost model.
type IterationRecord struct {
	// BatchSize is the number of active requests this iteration.
	BatchSize int
	// ReqIDs[i] is the request ID of the i-th active request, letting the
	// cost model attribute iteration time to requests (per-request
	// latency percentiles).
	ReqIDs []int
	// TreeNodes[i] is the speculated-node count of the i-th active
	// request's tree (0 for incremental decoding).
	TreeNodes []int
	// TreeLeaves[i] is the number of root-to-leaf sequences in the i-th
	// request's tree — the kernel count of the sequence-based decoding
	// baseline (Figure 11).
	TreeLeaves []int
	// TreePathPositions[i] is the sum of root-to-leaf path lengths of the
	// i-th request's tree — the token-positions the sequence-based
	// decoding baseline processes (shared prefixes recomputed).
	TreePathPositions []int
	// Committed[i] is the number of tokens the i-th request committed.
	Committed []int
	// CtxLens[i] is the committed context length of the i-th request at
	// the END of the iteration (drives KV-read costs).
	CtxLens []int
	// CacheBytes[i] is the KV-cache storage (bytes) held by the i-th
	// request's LLM session at the end of the iteration — the per-request
	// accounting a memory-aware scheduler needs. 0 when the session does
	// not report it (model.CacheSizer).
	CacheBytes []int64
	// PrefixSharedToks[i] is how many of the i-th request's prompt
	// tokens its LLM session served from the cross-request prefix cache
	// at admission (0 on a miss or with the cache disabled).
	PrefixSharedToks []int
	// SpecAccepted[i] is the number of speculated tokens the i-th
	// request's verification accepted this iteration — the committed run
	// minus the bonus token, before budget/EOS truncation — i.e. the
	// verifier's accept length, the quantity traversal verification
	// improves over MSS. -1 when the verification failed. 0 for a
	// zero-budget policy step (PolicyNodes[i] == 0), which verifies
	// nothing and counts as no verification. Nil for incremental
	// decoding (no speculation to accept).
	SpecAccepted []int
	// SpecSteps is the number of SSM decoding levels used to build the
	// trees (0 for incremental).
	SpecSteps int
	// PolicyMode is the speculation policy's mode this iteration
	// ("latency" or "throughput"); empty when the policy engine is
	// disabled. The mode is batch-global — its inputs (queue depth,
	// batch occupancy) are shared by every request of the iteration.
	PolicyMode string
	// PolicyNodes[i] is the speculated-node budget the policy granted
	// the i-th active request this iteration (scaled by the request's
	// accept-length EWMA within the mode's ceiling); 0 marks a
	// zero-budget step, which decoded one token incrementally. Nil when
	// the policy engine is disabled.
	PolicyNodes []int
	// PolicySSMs[i] is how many ensemble SSMs the policy ran for the
	// i-th request (0 = the whole pool). Nil when the policy engine is
	// disabled.
	PolicySSMs []int
}

// Engine serves requests: offline traces via Run/RunOnline, live
// traffic via Serve/Submit (see serve.go).
type Engine struct {
	cfg Config

	// prefix is the cross-request prefix KV cache, non-nil when
	// Config.PrefixCacheBytes is set (see prefix.go).
	prefix *kvcache.PrefixCache

	// pol is the speculation policy controller, non-nil when
	// Config.Policy is set (see policy.go).
	pol *policy.Controller
	// simQueued is RunOnline's admission backlog — arrivals at or before
	// the simulated clock still waiting for a slot — surfaced to the
	// policy as the queue-depth signal the live path reads from the
	// serve queue. Written and read only on the co-simulation
	// goroutine; always zero outside RunOnline.
	simQueued int

	// mu guards srv, the live-serving state installed by Serve. The
	// offline paths never touch it.
	mu  sync.Mutex
	srv *serveState // guarded by mu
}

// NewEngine validates the configuration and returns an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.UseZeroEOS && cfg.EOS > 0 {
		return nil, fmt.Errorf("core: UseZeroEOS conflicts with EOS=%d; pick one", cfg.EOS)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg}
	if cfg.Policy != nil {
		ctl, err := policy.NewController(*cfg.Policy)
		if err != nil {
			return nil, err
		}
		e.pol = ctl
	}
	if cfg.PrefixCacheBytes > 0 {
		e.prefix = kvcache.NewPrefixCache(cfg.PrefixCacheBytes)
	}
	return e, nil
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// reqState is the per-request serving state held while a request occupies
// a continuous-batching slot.
type reqState struct {
	pos      int // index into the Run input slice
	req      workload.Request
	llm      model.Session
	spec     treeSpeculator // nil for incremental decoding
	lastTok  model.Token
	lastDist []float32
	rng      *tensor.RNG
	res      RequestResult
	done     bool
	// prefilled is set once the prefill phase has run the request's
	// prompt through its sessions; until then it is not stepped.
	prefilled bool
	// prefix lists the request's prefix-cache sessions (LLM first, then
	// the speculator's SSM sessions), whose cache calls the prefill
	// phase stages on the scheduler goroutine. Nil with the cache off.
	prefix []*prefixSession
	// verr is the verification error that retired the request, if any
	// (also recorded in res.Err; kept separately so the live path can
	// finish the submission with it).
	verr error
	// live is the submission handle when the request arrived through
	// Submit (nil on the offline Run/RunOnline paths).
	live *liveReq
	// sampleBuf is decodeStep's scratch for the sampling distribution.
	sampleBuf []float32
}

// Run serves the trace to completion with continuous batching and returns
// one result per request (in request order) plus the per-iteration records
// the hardware cost model consumes.
func (e *Engine) Run(reqs []workload.Request) ([]RequestResult, []IterationRecord) {
	results := make([]RequestResult, len(reqs))
	var iters []IterationRecord

	pending := make([]int, len(reqs)) // indices into reqs
	for i := range pending {
		pending[i] = i
	}
	var active []*reqState

	for len(pending) > 0 || len(active) > 0 {
		// Admission: iteration-level scheduling (Orca). New requests are
		// admitted as soon as a slot frees up, without waiting for the
		// whole batch to drain; the iteration's prefill phase prefills
		// them.
		for len(active) < e.cfg.MaxBatch && len(pending) > 0 {
			idx := pending[0]
			pending = pending[1:]
			st := e.admit(reqs[idx])
			st.pos = idx
			active = append(active, st)
		}

		iters = append(iters, e.runIteration(active, nil))

		// Retire finished requests.
		var still []*reqState
		for _, st := range active {
			if st.done {
				results[st.pos] = st.res
				e.release(st)
			} else {
				still = append(still, st)
			}
		}
		active = still
	}
	return results, iters
}

// runIteration runs one engine iteration over the active batch: the
// prefill phase, then one step of every prefilled request, and returns
// the iteration record. Both phases run on the bounded worker pool
// (Config.Workers); each worker claims slots from an atomic counter and
// writes its result to the claimed slot, so the record — and every
// other output — is independent of scheduling order. Per-request state
// (LLM session, speculator sessions, RNG stream) is confined to one
// worker at a time, and the shared models are read-only during serving,
// which keeps the loop race-clean (the engine tests run it under -race).
//
// clock, when non-nil (live serving), times each request's step inside
// its worker; the speculation policy folds those costs in serially, in
// slot order, after the pool finishes, and prices the next iteration's
// decisions with them. Prefill time is not part of any step's cost. The
// offline paths pass nil and measure nothing.
func (e *Engine) runIteration(active []*reqState, clock func() time.Time) IterationRecord {
	batch := e.prefill(active)
	rec := IterationRecord{BatchSize: len(batch)}
	if e.cfg.Mode != Incremental {
		rec.SpecSteps = e.specDepth()
	}
	measured := e.pol != nil && clock != nil
	if e.pol != nil {
		e.decidePolicy(batch, &rec, measured)
	}
	shapes := make([]stepShape, len(batch))
	e.parallel(len(batch), func(i int) {
		st := batch[i]
		if !measured {
			shapes[i] = e.step(st)
			return
		}
		t0 := clock()
		sh := e.step(st)
		sh.dur = clock().Sub(t0)
		shapes[i] = sh
	})
	for i, st := range batch {
		sh := shapes[i]
		rec.ReqIDs = append(rec.ReqIDs, st.req.ID)
		rec.TreeNodes = append(rec.TreeNodes, sh.nodes)
		rec.TreeLeaves = append(rec.TreeLeaves, sh.leaves)
		rec.TreePathPositions = append(rec.TreePathPositions, sh.pathPositions)
		rec.Committed = append(rec.Committed, sh.committed)
		if e.cfg.Mode != Incremental {
			rec.SpecAccepted = append(rec.SpecAccepted, sh.specAccepted)
		}
		if e.pol != nil {
			// Serial, in slot order: the estimate update sequence must
			// not depend on worker interleaving. A zero-budget step
			// verified nothing, so only its cost is evidence.
			nodes := rec.PolicyNodes[i]
			if nodes > 0 {
				e.pol.Observe(st.req.ID, sh.specAccepted)
			}
			if measured {
				e.pol.ObserveCost(st.req.ID, nodes, sh.dur.Seconds())
			}
		}
		rec.CtxLens = append(rec.CtxLens, st.llm.Len())
		rec.CacheBytes = append(rec.CacheBytes, sessionCacheBytes(st.llm))
		shared := 0
		if ps, ok := st.llm.(prefixShared); ok {
			shared = ps.PrefixSharedTokens()
		}
		rec.PrefixSharedToks = append(rec.PrefixSharedToks, shared)
	}
	return rec
}

// prefill is an iteration's prefill phase: it runs the prompts of every
// active request not yet prefilled through its LLM and SSM sessions on
// the worker pool, and returns the requests to step this iteration.
// Admission only opens the sessions; paying for the forward passes here
// lets a burst's prefills overlap instead of queueing on the scheduler
// goroutine. Every prefix-cache call stays on the scheduler goroutine,
// in slot order: lookups before the pool starts, inserts after it
// finishes, so cache hits, evictions and PrefixSharedToks do not depend
// on goroutine interleaving. A request that could adopt pages an earlier
// request of the same phase is about to insert sits the phase out and
// prefills next iteration, adopting them (waitsForInsert); it is not
// stepped this iteration. The first unprefilled request never waits, so
// every iteration steps at least one request.
func (e *Engine) prefill(active []*reqState) []*reqState {
	var staged []*reqState
	waiting := 0
	for _, st := range active {
		if st.prefilled {
			continue
		}
		if waitsForInsert(st, staged) {
			waiting++
			continue
		}
		for _, s := range st.prefix {
			s.lookup(st.req.Prompt)
		}
		staged = append(staged, st)
	}
	if len(staged) == 0 {
		return active
	}
	e.parallel(len(staged), func(i int) {
		st := staged[i]
		st.lastDist = st.llm.Prefill(st.req.Prompt)
		if st.spec != nil {
			st.spec.Prefill(st.req.Prompt)
		}
	})
	for _, st := range staged {
		st.prefilled = true
		for _, s := range st.prefix {
			s.publish()
		}
	}
	if waiting == 0 {
		return active
	}
	batch := make([]*reqState, 0, len(active)-waiting)
	for _, st := range active {
		if st.prefilled {
			batch = append(batch, st)
		}
	}
	return batch
}

// parallel runs fn(0) … fn(n-1) on the worker pool: up to
// Config.Workers goroutines (GOMAXPROCS when 0), each claiming indices
// from an atomic counter, or inline when one worker suffices. fn must
// write only to state owned by index i.
//
// A panic inside a worker goroutine would kill the whole process before
// any caller could contain it, so the first one is captured and
// re-raised on the calling (scheduler) goroutine once every worker has
// stopped; a fleet front-end that recovers around Serve can then eject
// just this replica. The batch is torn down anyway — partial work on the
// surviving indices does not need to stay consistent.
func (e *Engine) parallel(n int, fn func(i int)) {
	nw := e.cfg.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > n {
		nw = n
	}
	if nw <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var panicMu sync.Mutex
	var panicked any // guarded by panicMu
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = p
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	panicMu.Lock()
	p := panicked
	panicMu.Unlock()
	if p != nil {
		//lint:ignore panicmsg re-raising the worker's original panic value preserves it for the fleet supervisor's recover
		panic(p)
	}
}

// sessionCacheBytes reports a session's KV-cache footprint when it
// implements model.CacheSizer, else 0.
func sessionCacheBytes(s model.Session) int64 {
	if cs, ok := s.(model.CacheSizer); ok {
		return int64(cs.CacheBytes())
	}
	return 0
}

// release closes a retired request's sessions: the LLM session and the
// speculator's SSM sessions free their KV pages immediately instead of
// waiting for the garbage collector to notice the whole request state is
// dead — under continuous batching the freed pages bound the engine's
// peak cache footprint by the active batch, not the whole trace. The
// policy controller's acceptance history is retired with the request
// for the same reason: the EWMA map stays bounded by the active batch,
// not the lifetime request count.
func (e *Engine) release(st *reqState) {
	if c, ok := st.llm.(model.Closer); ok {
		c.Close()
	}
	if c, ok := st.spec.(model.Closer); ok {
		c.Close()
	}
	if e.pol != nil {
		e.pol.Retire(st.req.ID)
	}
}

func (e *Engine) specDepth() int {
	switch {
	case e.cfg.Mode == SequenceSpec:
		return e.cfg.SeqDepth
	case e.pol != nil:
		return e.pol.Config().Latency.MaxDepth
	case e.cfg.Adaptive != nil:
		if e.cfg.Adaptive.MaxDepth > 0 {
			return e.cfg.Adaptive.MaxDepth
		}
		return 8
	default:
		return len(e.cfg.Expansion)
	}
}

// admit opens a request's sessions and RNG stream. It is bookkeeping
// only: the iteration's prefill phase runs the prompt through the
// sessions (Engine.prefill).
func (e *Engine) admit(req workload.Request) *reqState {
	var opened []*prefixSession
	llm, ssms := e.admissionModels(&opened)
	st := &reqState{
		req:     req,
		llm:     llm.NewSession(),
		lastTok: req.Prompt[len(req.Prompt)-1],
		rng:     tensor.NewRNG(e.cfg.Seed ^ (uint64(req.ID)+1)*0x9e3779b97f4a7c15),
		res:     RequestResult{ID: req.ID, PromptLen: len(req.Prompt)},
	}
	switch e.cfg.Mode {
	case Incremental:
		// no speculator: incremental decoding samples straight from the LLM
	case SequenceSpec:
		st.spec = speculator.NewSequence(e.cfg.SeqDepth, e.cfg.Sample, ssms[0])
	case TreeSpec:
		if e.pol != nil {
			st.spec = newPolicySpeculator(e.cfg.Sample, ssms)
		} else if e.cfg.Adaptive != nil {
			st.spec = speculator.NewAdaptive(*e.cfg.Adaptive, e.cfg.Sample, ssms[0])
		} else {
			st.spec = speculator.New(speculator.Config{
				Expansion: e.cfg.Expansion,
				Sample:    e.cfg.Sample,
				ForceTopK: e.cfg.ForceTopK,
				Seed:      e.cfg.Seed ^ uint64(req.ID)<<17,
			}, ssms...)
		}
	}
	st.prefix = opened
	return st
}

// stepShape reports one request-iteration's work for the cost model.
type stepShape struct {
	nodes         int // speculated tree nodes verified
	leaves        int // root-to-leaf sequences in the tree
	pathPositions int // summed root-to-leaf path lengths
	committed     int // tokens committed
	specAccepted  int // speculated tokens the verifier accepted (-1 on error)
	// dur is the step's wall time, measured only on the live path.
	dur time.Duration
}

// step runs one decoding iteration for one request.
func (e *Engine) step(st *reqState) stepShape {
	if e.cfg.Mode == Incremental {
		e.decodeStep(st)
		return stepShape{committed: 1}
	}
	if ps, ok := st.spec.(*policySpeculator); ok && ps.dec.Budget.MaxNodes <= 0 {
		// Zero-budget policy step: an incremental step. The SSM
		// sessions see the token the next time the request speculates.
		ps.Defer(e.decodeStep(st))
		return stepShape{committed: 1}
	}

	tr := st.spec.Speculate(st.lastTok)
	dists := st.llm.DecodeTree(tr)
	var verified []model.Token
	var verr error
	switch {
	case e.cfg.Sample.Mode == sampling.Greedy:
		verified = verifier.VerifyGreedy(dists, tr)
	case e.cfg.Verifier == VerifierNaive:
		verified = verifier.VerifyNaive(dists, tr, e.cfg.Sample, st.rng)
	case e.cfg.Verifier == VerifierTraversal:
		verified, verr = verifier.VerifyTraversal(dists, tr, e.cfg.Sample, st.rng)
	default:
		verified, verr = verifier.VerifyStochastic(dists, tr, e.cfg.Sample, st.rng)
	}
	if verr != nil {
		// A malformed speculated tree fails this one request, not the
		// replica: retire it with the error and commit nothing.
		st.verr = verr
		st.res.Err = verr
		st.done = true
		return stepShape{nodes: tr.NumSpeculated(), specAccepted: -1}
	}
	specAccepted := len(verified) - 1 // accept length, before truncation
	verified = e.truncate(st, verified)
	st.lastDist = st.llm.Accept(verified)
	st.spec.Accept(verified)
	e.commit(st, verified)
	st.res.Steps++
	st.res.CommittedPerStep = append(st.res.CommittedPerStep, len(verified))
	st.res.TreeNodesPerStep = append(st.res.TreeNodesPerStep, tr.NumSpeculated())

	sh := stepShape{
		nodes:        tr.NumSpeculated(),
		committed:    len(verified),
		specAccepted: specAccepted,
	}
	for _, leaf := range tr.Leaves() {
		sh.leaves++
		sh.pathPositions += tr.Node(leaf).Depth
	}
	return sh
}

// decodeStep is one incremental decoding step: sample the next token
// from the LLM's last distribution, forward it, and commit it. It
// returns the token.
func (e *Engine) decodeStep(st *reqState) model.Token {
	tok := e.cfg.Sample.SampleBuf(st.rng, st.lastDist, &st.sampleBuf)
	st.lastDist = st.llm.Decode(tok)
	e.commit(st, []model.Token{tok})
	st.res.Steps++
	st.res.CommittedPerStep = append(st.res.CommittedPerStep, 1)
	st.res.TreeNodesPerStep = append(st.res.TreeNodesPerStep, 0)
	return tok
}

// truncate clips a verified token run at the request's remaining
// generation budget and just after the first EOS. The result always
// retains at least one token (verification emits at least the bonus token
// and the budget is positive while the request is active), so the session
// Accept below stays well-defined.
func (e *Engine) truncate(st *reqState, verified []model.Token) []model.Token {
	if remaining := st.req.MaxNewTok - len(st.res.Output); len(verified) > remaining {
		verified = verified[:remaining]
	}
	if e.cfg.EOS >= 0 {
		for i, tok := range verified {
			if tok == e.cfg.EOS {
				return verified[:i+1]
			}
		}
	}
	return verified
}

// commit appends tokens to the request output and updates completion.
func (e *Engine) commit(st *reqState, tokens []model.Token) {
	st.res.Output = append(st.res.Output, tokens...)
	if len(tokens) > 0 {
		st.lastTok = tokens[len(tokens)-1]
	}
	if len(st.res.Output) >= st.req.MaxNewTok {
		st.done = true
	}
	if e.cfg.EOS >= 0 && len(tokens) > 0 && tokens[len(tokens)-1] == e.cfg.EOS {
		st.done = true
	}
}
