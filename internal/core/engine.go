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
	"slices"
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
	// Shape is the token tree each speculative step drafts: the ceiling
	// the engine's shape chooser cuts under Serve — each step drafts its
	// first d levels, or none, whichever the measured step costs and
	// acceptance say commits tokens fastest (DESIGN.md §26) — and the
	// tree Run and RunOnline draft whole on every step. A static
	// Expansion expands level by level; a Budget grows every SSM's tree
	// best-first (the paper's stated future work; its zero fields take
	// tree.Budget's defaults) and prunes the merged tree back to
	// MaxNodes. The zero value is the paper's ⟨1,1,3,1,1,1,1,1⟩ under
	// TreeSpec and a chain of 8 (tree.SequenceConfig(8)) under
	// SequenceSpec, which accepts only chains. A Shape sets Expansion or
	// Budget, not both, and leaves SSMs at 0: the drafting pool is
	// Config.SSMs. Incremental decoding drafts nothing and rejects a
	// non-zero Shape, and so does Policy, whose rule supplies every
	// step's ceiling.
	Shape speculator.Shape
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
	// stepping. It does not bound the one split inside a request's pass:
	// the transformer runs a layer's attention items on up to GOMAXPROCS
	// goroutines once the stage is large enough (DESIGN.md §28), whatever
	// Workers is. Output is bit-identical for every setting: per-request
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
	// Policy, when non-nil, enables the per-request, per-iteration
	// speculation policy engine (see internal/policy): each iteration
	// the controller picks every request's tree budget and SSM count
	// from its measured accept-length EWMA, the admission-queue depth,
	// and batch occupancy — deep trees when the batch is underfull
	// (latency mode), narrow speculation when verification is contended
	// (throughput mode). The admission-queue depth is the backlog the
	// scheduler loop's source reports: the Submit queue under Serve,
	// the arrived-but-unadmitted requests under RunOnline, and none
	// under Run. The rule's budget takes the place of Shape: under Serve
	// it is the ceiling the engine's shape chooser cuts, to the depth, or
	// to zero, that the measured step costs and acceptance say commits
	// tokens fastest (DESIGN.md §19, §26). A zero-budget step samples
	// from the LLM's last distribution and decodes one token, with no
	// tree, verifier or SSM forward. Run and RunOnline measure nothing
	// and grant the rule's budget whole. TreeSpec mode only, with a zero
	// Shape.
	Policy *policy.Config

	// PrefixCacheBytes, when positive, enables the cross-request prefix
	// KV cache: admissions look up the longest cached prefix of their
	// prompt and adopt its pages read-only instead of recomputing them,
	// and committed prompt pages are inserted for later requests (see
	// kvcache.PrefixCache) unless the request is a guest
	// (workload.Request.Guest). The value is the LRU eviction budget in
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
	// Clock supplies wall-clock time for live serving (queue-delay and
	// latency accounting in Serve/Submit, the drain deadline, and the
	// per-step costs the shape chooser prices its decisions with).
	// nil defaults to the real clock. Run and RunOnline never read it:
	// their clock is virtual (RunOnline's advances by its
	// IterationPricer), so their determinism does not depend on this
	// field.
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

func (c Config) withDefaults() Config {
	switch {
	case c.Shape.Expansion != nil:
	case c.Shape.Budget != (tree.Budget{}):
		c.Shape.Budget = c.Shape.Budget.WithDefaults()
	case c.Mode == SequenceSpec:
		c.Shape.Expansion = tree.SequenceConfig(8)
	case c.Mode == TreeSpec && c.Policy == nil:
		c.Shape.Expansion = tree.PaperDefault()
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
	shaped := c.Shape.Expansion != nil || c.Shape.Budget != (tree.Budget{})
	switch {
	case c.Shape.SSMs != 0:
		return fmt.Errorf("core: Shape.SSMs must be 0 (the drafting pool is Config.SSMs), got %d", c.Shape.SSMs)
	case c.Shape.Expansion != nil && c.Shape.Budget != (tree.Budget{}):
		return fmt.Errorf("core: Shape sets both Expansion and Budget; pick one")
	case c.Policy != nil && c.Mode != TreeSpec:
		return fmt.Errorf("core: Policy requires TreeSpec mode, got %v", c.Mode)
	case c.Policy != nil && shaped:
		return fmt.Errorf("core: Policy conflicts with Shape (the rule supplies every step's ceiling); pick one")
	case c.Mode == Incremental && shaped:
		return fmt.Errorf("core: incremental decoding drafts no Shape")
	case c.Mode == SequenceSpec && (c.Shape.Expansion == nil ||
		!slices.Equal(c.Shape.Expansion, tree.SequenceConfig(len(c.Shape.Expansion)))):
		return fmt.Errorf("core: SequenceSpec drafts a chain (tree.SequenceConfig), got %+v", c.Shape)
	}
	if c.Shape.Expansion != nil {
		if msg := c.Shape.Expansion.Validate(); msg != "" {
			return fmt.Errorf("core: %s", msg)
		}
	}
	if b := c.Shape.Budget; b.MaxNodes < 0 || b.MaxDepth < 0 || b.FanoutCap < 0 || b.MinPathProb < 0 {
		return fmt.Errorf("core: negative Shape field: %+v", c.Shape)
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
	// Err is nil on normal completion (budget or EOS reached). A request
	// retired early carries the reason: a verifier error on a malformed
	// speculated tree, or, for a request submitted through Submit,
	// context.Canceled, context.DeadlineExceeded, ErrDraining or
	// ErrDrainTimeout. Output then holds whatever was committed before.
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
	// Reqs holds one row per request stepped this iteration, in slot
	// order; its length is the iteration's batch size.
	Reqs []ReqIter
	// SpecSteps is the number of SSM decoding levels used to build the
	// trees: the deepest row's Depth, 0 for incremental decoding and
	// when every step of the iteration was a zero step.
	SpecSteps int
	// PolicyMode is the speculation policy's mode this iteration
	// ("latency" or "throughput"); empty when the policy engine is
	// disabled, and then the rows' Policy* fields are zero. The mode is
	// batch-global — its inputs (queue depth, batch occupancy) are
	// shared by every request of the iteration.
	PolicyMode string
}

// ReqIter is one request's row of an IterationRecord.
type ReqIter struct {
	// ID is the request ID, letting the cost model attribute iteration
	// time to requests (per-request latency percentiles).
	ID int
	// TreeNodes is the speculated-node count of the request's tree (0
	// for an incremental step).
	TreeNodes int
	// TreeLeaves and TreePathPositions count the tree's root-to-leaf
	// sequences and sum their lengths: the kernels and token-positions
	// of the sequence-based decoding baseline (Figure 11), which
	// recomputes shared prefixes.
	TreeLeaves, TreePathPositions int
	// Committed is the number of tokens the request committed.
	Committed int
	// CtxLen is the committed context length at the END of the
	// iteration (drives KV-read costs).
	CtxLen int
	// CacheBytes is the KV-cache storage (bytes) the request's LLM
	// session holds at the end of the iteration — the per-request
	// accounting a memory-aware scheduler needs. 0 when the session does
	// not report it (model.CacheSizer).
	CacheBytes int64
	// PrefixSharedToks is how many prompt tokens the LLM session served
	// from the cross-request prefix cache at admission (0 on a miss or
	// with the cache disabled).
	PrefixSharedToks int
	// SpecAccepted is the number of speculated tokens the verification
	// accepted — the committed run minus the bonus token, before
	// budget/EOS truncation — i.e. the verifier's accept length, the
	// quantity traversal verification improves over MSS. -1 when the
	// verification failed. 0 for a step that verified nothing (Depth 0).
	SpecAccepted int
	// Depth is how many SSM decoding levels the step's shape drafted: 0
	// for an incremental step — every step of incremental decoding, and
	// a zero step the shape chooser granted under Serve.
	Depth int
	// PolicyNodes is the speculated-node budget the policy granted
	// (scaled by the request's accept-length EWMA within the mode's
	// ceiling); 0 marks a zero-budget step, which decoded one token
	// incrementally. PolicySSMs is how many ensemble SSMs the policy ran
	// (0 = the whole pool).
	PolicyNodes, PolicySSMs int
}

// Engine serves requests: traces via Run/RunOnline (see online.go), live
// traffic via Serve/Submit (see serve.go), all through one scheduler
// loop (Engine.schedule).
type Engine struct {
	cfg Config

	// prefix is the cross-request prefix KV cache, non-nil when
	// Config.PrefixCacheBytes is set (see prefix.go).
	prefix *kvcache.PrefixCache

	// pol is the speculation policy controller, non-nil when
	// Config.Policy is set (see policy.go).
	pol *policy.Controller
	// shapes prices every speculating request's steps under Serve (nil
	// for incremental decoding), and nodes is cutNodes' scratch, which
	// only Serve's scheduler goroutine touches: a step is priced only
	// when measured, and at most one Serve runs at a time.
	shapes *policy.Chooser
	nodes  []int

	// pool runs the scheduler loop's parallel phases; schedule sets it
	// for the loop's life, and only that loop's goroutine reads it (one
	// scheduler loop runs at a time, as for nodes).
	pool *workerPool

	// mu guards srv, the live-serving state installed by Serve. Run and
	// RunOnline never touch it.
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
	if cfg.Mode != Incremental {
		e.shapes = policy.NewChooser()
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
	pos  int // index into the trace (Run/RunOnline)
	req  workload.Request
	llm  model.Session
	spec *speculator.Speculator // nil for incremental decoding
	// shape is the tree the next step drafts, written each iteration by
	// stepBatch on the scheduler goroutine before the worker pool
	// starts. A shape that drafts nothing makes the step an incremental
	// one.
	shape    speculator.Shape
	lastTok  model.Token
	lastDist []float32 // the LLM session's, borrowed until its next call (model.Session.Decode)
	rng      *tensor.RNG
	res      RequestResult
	done     bool
	// prefilled is set once the prefill phase has run the request's
	// prompt through its sessions; until then it is not stepped.
	prefilled bool
	// sessions are the request's sessions, the LLM's first, then the
	// speculator's, and slots holds each one's prefix-cache state
	// (prefix.go). cache is the prefix cache the slots look up in: the
	// engine's own, a guest's host's, or nil with the cache off. shared
	// is how many prompt tokens the LLM session adopted from it.
	sessions []model.Session
	slots    []cacheSlot
	cache    *kvcache.PrefixCache
	shared   int
	// live is the submission handle when the request arrived through
	// Submit (nil under Run/RunOnline).
	live *liveReq
	// sampleBuf is decodeStep's scratch for the sampling distribution.
	sampleBuf []float32
}

// source feeds the scheduler loop (Engine.schedule) and takes what it
// produces. traceSource replays a request list on a virtual clock (Run,
// RunOnline); liveSource admits from the Submit queue on Config.Clock
// (Serve).
type source interface {
	// admit returns the next iteration's batch: active plus the requests
	// admitted into free slots, minus the requests the source retired at
	// the iteration boundary. An empty batch ends the loop unless more
	// is set; then the loop asks again.
	admit(active []*reqState) (batch []*reqState, more bool)
	// backlog is the admission backlog the speculation policy sees:
	// requests that have arrived but hold no slot.
	backlog() int
	// iterated takes the iteration's record, before retirement, with
	// the batch it covered.
	iterated(rec IterationRecord, active []*reqState)
	// retire delivers a finished request's result; its sessions are
	// already released.
	retire(st *reqState)
}

// schedule is the engine's one scheduler loop, §5.1's request manager
// under Orca-style iteration-level scheduling: admit into free slots
// (as soon as one frees, not when the batch drains), prefill the newly
// admitted, step the batch, retire the finished. clock, when non-nil
// (live serving), times each step for the shape chooser.
func (e *Engine) schedule(src source, clock func() time.Time) {
	var active []*reqState
	// Normal exits leave nothing active. A panic unwinding the loop (a
	// faulty model, re-raised from the worker pool) would leak the
	// batch's KV pages, prefix-cache pins and policy history: release
	// them and let the panic carry on unchanged. Their submitters get
	// no Result; a fleet front-end that recovers around Serve re-routes
	// or fails them.
	defer func() {
		for _, st := range active {
			e.release(st)
		}
	}()
	// Deferred after the release above, so it runs first: the pool's
	// workers exit before schedule returns or unwinds.
	e.pool = newWorkerPool()
	defer func() {
		e.pool.stop()
		e.pool = nil
	}()
	for {
		var more bool
		if active, more = src.admit(active); len(active) == 0 {
			if !more {
				return
			}
			continue
		}
		batch := e.prefill(active)
		rec := e.stepBatch(batch, src.backlog(), clock)
		src.iterated(rec, active)
		var still []*reqState
		for _, st := range active {
			if st.done {
				e.release(st)
				src.retire(st)
			} else {
				still = append(still, st)
			}
		}
		active = still
	}
}

// stepBatch steps every prefilled request once on the bounded worker
// pool (Config.Workers) and returns the iteration record. Each worker
// writes its request's row in place, so the record — and every other
// output — is independent of scheduling order. Per-request state (LLM
// session, speculator sessions, RNG stream) is confined to one worker at
// a time, and the shared models are read-only during serving, which
// keeps the loop race-clean (the engine tests run it under -race).
//
// queued is the admission backlog the speculation policy decides with.
// clock, when non-nil, times each step inside its worker; the shape
// chooser folds those costs in serially, in slot order, after the pool
// finishes, and prices the next iteration's decisions with them.
// Prefill time is not part of any step's cost.
func (e *Engine) stepBatch(batch []*reqState, queued int, clock func() time.Time) IterationRecord {
	rec := IterationRecord{Reqs: make([]ReqIter, len(batch))}
	measured := e.shapes != nil && clock != nil
	if e.pol != nil {
		rec.PolicyMode = e.pol.ModeFor(queued, len(batch), e.cfg.MaxBatch).String()
	}
	for i, st := range batch {
		st.shape = e.ceiling(st, queued, len(batch), measured)
		if measured {
			st.shape = st.shape.Cut(e.shapes.Choose(st.req.ID, e.cutNodes(st.shape)))
		}
		row := &rec.Reqs[i]
		if e.pol != nil {
			row.PolicyNodes, row.PolicySSMs = st.shape.Budget.MaxNodes, st.shape.SSMs
		}
		row.Depth = st.shape.Depth()
		rec.SpecSteps = max(rec.SpecSteps, row.Depth)
	}
	var durs []time.Duration
	if measured {
		durs = make([]time.Duration, len(batch))
	}
	e.parallel(len(batch), func(i int) {
		st, row := batch[i], &rec.Reqs[i]
		row.ID = st.req.ID
		if measured {
			t0 := clock()
			e.step(st, row)
			durs[i] = clock().Sub(t0)
		} else {
			e.step(st, row)
		}
		row.CtxLen = st.llm.Len()
		row.CacheBytes = sessionCacheBytes(st.llm)
		row.PrefixSharedToks = st.shared
	})
	// Serial, in slot order: the estimate update sequence must not
	// depend on worker interleaving. A zero step verified nothing, so
	// only its cost is evidence.
	for i, row := range rec.Reqs {
		if row.Depth > 0 && e.pol != nil {
			e.pol.Observe(row.ID, row.SpecAccepted)
		}
		if measured {
			if row.Depth > 0 {
				e.shapes.ObserveAccept(row.ID, row.SpecAccepted)
			}
			e.shapes.ObserveCost(row.ID, row.TreeNodes, durs[i].Seconds())
		}
	}
	return rec
}

// ceiling is the shape a request's step drafts whole, or, when
// measured, the one the shape chooser cuts: the speculation rule's
// budget under Config.Policy, else Config.Shape (which drafts nothing
// under incremental decoding). Under Serve the rule's history of the
// request starts at its first decision (policy.Controller.Track).
func (e *Engine) ceiling(st *reqState, queued, active int, measured bool) speculator.Shape {
	if e.pol == nil {
		return e.cfg.Shape
	}
	if measured {
		e.pol.Track(st.req.ID)
	}
	d := e.pol.Decide(st.req.ID, queued, active, e.cfg.MaxBatch)
	return speculator.Shape{Budget: d.Budget, SSMs: d.SSMs}
}

// cutNodes lists, in the engine's scratch, the speculated nodes of
// ceil cut to each depth 1…ceil.Depth(), drafted from the request's
// pool: every SSM of it, or the first alone for the sequence baseline.
func (e *Engine) cutNodes(ceil speculator.Shape) []int {
	pool := len(e.cfg.SSMs)
	if e.cfg.Mode == SequenceSpec {
		pool = 1
	}
	e.nodes = e.nodes[:0]
	for d := 1; d <= ceil.Depth(); d++ {
		e.nodes = append(e.nodes, ceil.Cut(d).Nodes(pool))
	}
	return e.nodes
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
		st.lookup()
		staged = append(staged, st)
	}
	if len(staged) == 0 {
		return active
	}
	e.parallel(len(staged), func(i int) {
		st := staged[i]
		for j := range st.sessions {
			if dist := st.prefillSession(j); j == 0 {
				st.lastDist = dist
			}
		}
	})
	for _, st := range staged {
		st.prefilled = true
		for j := range st.slots {
			st.publish(j)
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

// parallel runs fn(0) … fn(n-1) on the scheduler loop's worker pool:
// up to Config.Workers goroutines (GOMAXPROCS when 0), each claiming
// indices from an atomic counter, or inline when one worker suffices.
// fn must write only to state owned by index i. Both callers (prefill
// and stepBatch) run inside schedule, which keeps e.pool.
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
	e.pool.run(nw, n, fn)
}

// workerPool runs parallel phases on worker goroutines that, once
// started, wait for the next phase until stop. A scheduler loop keeps
// one for its life: goroutines started afresh for every phase regrew
// their stacks in the forward pass's kernels each time (runtime.newstack
// and copystack were 2.6 % of a serving profile), while a worker keeps
// its grown stack from phase to phase. The calling goroutine waits
// rather than taking a share: a worker it wakes goes to its processor's
// next-to-run slot, which other processors steal only after a delay, so
// the phase would run mostly on the caller alone (e2ebench burst-stoch
// read 21 % more time per token that way).
type workerPool struct {
	phases  chan *phase
	workers sync.WaitGroup
	started int // workers started, all waiting on phases between runs
}

func newWorkerPool() *workerPool { return &workerPool{phases: make(chan *phase)} }

// phase is one parallel call's work: indices [0, n) of fn, claimed from
// next, and the first panic any worker's share raised.
type phase struct {
	n        int
	fn       func(i int)
	next     atomic.Int64
	done     sync.WaitGroup // workers still working on the phase
	mu       sync.Mutex
	panicked any // guarded by mu
}

// run runs the phase on nw workers, starting the ones the pool lacks,
// and re-raises the first panic once every worker has left the phase.
func (p *workerPool) run(nw, n int, fn func(i int)) {
	for ; p.started < nw; p.started++ {
		p.workers.Add(1)
		// A worker works on each phase it receives until stop closes
		// phases.
		go func() {
			defer p.workers.Done()
			for ph := range p.phases {
				ph.work()
				ph.done.Done()
			}
		}()
	}
	ph := &phase{n: n, fn: fn}
	ph.done.Add(nw)
	for w := 0; w < nw; w++ {
		p.phases <- ph
	}
	ph.done.Wait()
	ph.mu.Lock()
	panicked := ph.panicked
	ph.mu.Unlock()
	if panicked != nil {
		//lint:ignore panicmsg re-raising the worker's original panic value preserves it for the fleet supervisor's recover
		panic(panicked)
	}
}

// work claims and runs indices until none is left or fn panics, which
// it records.
func (ph *phase) work() {
	defer func() {
		if r := recover(); r != nil {
			ph.mu.Lock()
			if ph.panicked == nil {
				ph.panicked = r
			}
			ph.mu.Unlock()
		}
	}()
	for {
		i := int(ph.next.Add(1)) - 1
		if i >= ph.n {
			return
		}
		ph.fn(i)
	}
}

// stop ends the pool's workers and waits for them to exit. The pool
// must be idle: no run in progress.
func (p *workerPool) stop() {
	close(p.phases)
	p.workers.Wait()
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
// not the lifetime request count; so is the shape chooser's.
func (e *Engine) release(st *reqState) {
	// Session by session, before any closes: re-insert the prompt
	// prefix, restoring entries the LRU may have evicted while the
	// request ran (the insert-on-retire half of the policy), then
	// unpin. Nil slots make a second release insert and unpin nothing.
	for i := range st.slots {
		st.publish(i)
		st.slots[i].pinned.Release()
	}
	st.slots = nil
	if c, ok := st.llm.(model.Closer); ok {
		c.Close()
	}
	st.lastDist = nil // the closed session's buffer, which another session may reuse
	if st.spec != nil {
		st.spec.Close()
	}
	if e.pol != nil {
		e.pol.Retire(st.req.ID)
	}
	if e.shapes != nil {
		e.shapes.Retire(st.req.ID)
	}
}

// admit opens a request's sessions, their slots looking the prompt up
// in cache (nil: none), and its RNG stream. It is bookkeeping only: the
// iteration's prefill phase runs the prompt through the sessions
// (Engine.prefill).
func (e *Engine) admit(req workload.Request, cache *kvcache.PrefixCache) *reqState {
	llm := e.cfg.LLM.NewSession()
	st := &reqState{
		req:      req,
		llm:      llm,
		sessions: []model.Session{llm},
		lastTok:  req.Prompt[len(req.Prompt)-1],
		rng:      tensor.NewRNG(e.cfg.Seed ^ (uint64(req.ID)+1)*0x9e3779b97f4a7c15),
		res:      RequestResult{ID: req.ID, PromptLen: len(req.Prompt)},
	}
	if e.cfg.Mode != Incremental { // incremental decoding samples straight from the LLM
		cfg := speculator.Config{
			Sample:    e.cfg.Sample,
			ForceTopK: e.cfg.ForceTopK,
			Seed:      e.cfg.Seed ^ uint64(req.ID)<<17,
		}
		ssms := e.cfg.SSMs
		if e.cfg.Mode == SequenceSpec {
			// The baseline drafts one sequence from the first SSM. Its
			// SampleK draws come from seed 0: one stream shared by every
			// request, unlike TreeSpec's per-request seeds.
			cfg = speculator.Config{Sample: e.cfg.Sample}
			ssms = ssms[:1]
		}
		st.spec = speculator.New(cfg, ssms...)
		st.sessions = append(st.sessions, st.spec.Sessions()...)
	}
	st.openSlots(cache)
	return st
}

// step runs one decoding iteration for one request and fills in its
// row's work for the cost model.
func (e *Engine) step(st *reqState, row *ReqIter) {
	if !st.shape.Drafts() {
		// An incremental step: incremental decoding, or a zero-budget
		// policy step, whose token the SSM sessions see the next time
		// the request speculates.
		tok := e.decodeStep(st)
		if st.spec != nil {
			st.spec.Defer(tok)
		}
		row.Committed = 1
		return
	}

	tr := st.spec.Speculate(st.lastTok, st.shape)
	row.TreeNodes = tr.NumSpeculated()
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
		st.res.Err = verr
		st.done = true
		row.SpecAccepted = -1
		return
	}
	row.SpecAccepted = len(verified) - 1 // accept length, before truncation
	verified = e.truncate(st, verified)
	st.lastDist = st.llm.Accept(verified)
	st.spec.Accept(verified)
	e.commit(st, verified)
	st.res.Steps++
	st.res.CommittedPerStep = append(st.res.CommittedPerStep, len(verified))
	st.res.TreeNodesPerStep = append(st.res.TreeNodesPerStep, row.TreeNodes)

	row.Committed = len(verified)
	for _, leaf := range tr.Leaves() {
		row.TreeLeaves++
		row.TreePathPositions += tr.Node(leaf).Depth
	}
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
