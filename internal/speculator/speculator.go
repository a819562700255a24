// Package speculator implements SpecInfer's learning-based speculator
// (§3): one speculated token tree per decoding iteration from a pool of
// small speculative models (SSMs), built by expansion (top-k branching
// under a static ⟨k_1..k_m⟩ configuration, or best-first growth under a
// node budget) and merged across the pool (Definition 3.2). The shape of
// the tree is chosen per call, so a policy can reshape it every
// iteration without touching the SSM sessions.
package speculator

import (
	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// Config configures a per-request speculator.
type Config struct {
	// Sample is the decode policy of the *request* (greedy/stochastic with
	// temperature etc.). SSM distributions are transformed with the same
	// policy so that MSS's acceptance ratios compare like with like.
	Sample sampling.Config
	// ForceTopK keeps top-k static expansion under stochastic decoding.
	// Otherwise a stochastic policy expands by SampleK: k i.i.d. draws
	// from the proposal distribution (duplicates merged), the premise
	// under which Theorem 4.2's exact distribution equivalence holds.
	// Top-k drafts are not samples of the proposal, so with stochastic
	// verification they only approximate the LLM's distribution.
	ForceTopK bool
	// Seed drives SampleK expansion randomness.
	Seed uint64
}

// Shape is the form of one speculated tree.
type Shape struct {
	// Expansion, when non-nil, is a static expansion configuration:
	// every SSM expands its tree level by level, and the trees are
	// merged with no prune, so m SSMs propose up to m times the
	// sequences.
	Expansion tree.ExpansionConfig
	// Budget, when Expansion is nil, grows every SSM's tree best-first;
	// the merged tree is pruned back to Budget.MaxNodes by path
	// probability. A zero MaxNodes drafts nothing.
	Budget tree.Budget
	// SSMs is how many models of the pool draft, first first; 0 (or
	// more than the pool holds) means all of them.
	SSMs int
}

// Drafts reports whether the shape proposes any node. A shape that does
// not is an incremental step: the engine decodes without a tree.
func (sh Shape) Drafts() bool { return sh.Expansion != nil || sh.Budget.MaxNodes > 0 }

// Depth is the most SSM decoding levels the shape runs: 0 when it
// drafts nothing.
func (sh Shape) Depth() int {
	switch {
	case sh.Expansion != nil:
		return len(sh.Expansion)
	case sh.Budget.MaxNodes > 0:
		return sh.Budget.WithDefaults().MaxDepth
	}
	return 0
}

// Cut is the shape cut to its first depth levels: a static
// configuration's first depth steps, or the budget with MaxDepth set to
// depth. Cut(0) drafts nothing.
func (sh Shape) Cut(depth int) Shape {
	switch {
	case depth <= 0:
		return Shape{}
	case sh.Expansion != nil:
		sh.Expansion = sh.Expansion[:min(depth, len(sh.Expansion))]
	default:
		sh.Budget.MaxDepth = depth
	}
	return sh
}

// Nodes is the most speculated nodes the shape drafts from a pool of
// pool SSMs: a static configuration's nodes once per drafting SSM (their
// trees merge without a prune), or, under a budget, the drafting SSMs'
// trees pruned back to MaxNodes, its zero fields taking their defaults.
func (sh Shape) Nodes(pool int) int {
	n := sh.SSMs
	if n <= 0 || n > pool {
		n = pool
	}
	switch {
	case sh.Expansion != nil:
		return n * sh.Expansion.MaxNodes()
	case sh.Budget.MaxNodes > 0:
		return min(n*sh.Budget.WithDefaults().Capacity(), sh.Budget.MaxNodes)
	}
	return 0
}

// Speculator drives the SSM sessions of a single request. It mirrors the
// request's committed sequence into every SSM session and produces one
// speculated token tree per decoding iteration.
type Speculator struct {
	cfg      Config
	sessions []model.Session
	rng      *tensor.RNG
	// backlog holds committed tokens the SSM sessions have not seen
	// yet (see Defer).
	backlog []model.Token

	// Drafting buffers, reused call after call: the per-SSM trees of one
	// Speculate, expand's frontier levels and its per-level set of
	// admitted children, and the candidate tokens of one node.
	trees          []*tree.Tree
	frontier, next []tree.NodeID
	seen           map[tree.NodeID]bool
	topk           tensor.TopKBuf
	picks          []int
}

// New creates a speculator over the given SSM pool. At least one SSM is
// required; all SSMs must share the LLM's vocabulary.
func New(cfg Config, ssms ...model.Model) *Speculator {
	if len(ssms) == 0 {
		panic("speculator: need at least one SSM")
	}
	vocab := ssms[0].VocabSize()
	for _, m := range ssms[1:] {
		if m.VocabSize() != vocab {
			panic("speculator: SSM vocabularies differ")
		}
	}
	s := &Speculator{cfg: cfg, rng: tensor.NewRNG(cfg.Seed ^ 0xabcdef123)}
	for _, m := range ssms {
		s.sessions = append(s.sessions, m.NewSession())
	}
	return s
}

// Sessions returns the SSM sessions, one per model in New's order.
func (s *Speculator) Sessions() []model.Session { return s.sessions }

// Prefill feeds the request prompt to every SSM session.
func (s *Speculator) Prefill(prompt []model.Token) {
	for _, sess := range s.sessions {
		sess.Prefill(prompt)
	}
}

// Accept commits the verified tokens into every SSM session — including
// the ones the current shape left out, so a later shape can draft from
// any of them without resyncing. Speculate has already forwarded the
// backlog, so the tokens extend the tree it drafted.
func (s *Speculator) Accept(tokens []model.Token) {
	for _, sess := range s.sessions {
		sess.Accept(tokens)
	}
}

// Defer queues tokens a step committed without drafting (a shape that
// Drafts nothing). The next Speculate forwards the whole backlog in one
// batched Accept before drafting: bit-identical to committing the tokens
// one at a time, at the cost of one SSM pass.
func (s *Speculator) Defer(tokens ...model.Token) {
	s.backlog = append(s.backlog, tokens...)
}

// Close releases every SSM session that holds releasable resources
// (model.Closer). The speculator must not be used afterwards.
func (s *Speculator) Close() {
	for _, sess := range s.sessions {
		if c, ok := sess.(model.Closer); ok {
			c.Close()
		}
	}
	s.backlog = nil
}

// Speculate catches the SSM sessions up on any deferred tokens, then
// produces the speculated token tree for the next iteration: each of the
// shape's SSMs grows its own tree, and the trees are merged (Definition
// 3.2). rootTok must be the last committed token of the request. A shape
// that drafts nothing yields a bare root.
func (s *Speculator) Speculate(rootTok model.Token, shape Shape) *tree.Tree {
	if len(s.backlog) > 0 {
		s.Accept(s.backlog)
		s.backlog = s.backlog[:0]
	}
	if !shape.Drafts() {
		return tree.New(rootTok)
	}
	if shape.Expansion != nil {
		if msg := shape.Expansion.Validate(); msg != "" {
			panic("speculator: " + msg)
		}
	}
	n := shape.SSMs
	if n <= 0 || n > len(s.sessions) {
		n = len(s.sessions)
	}
	s.trees = s.trees[:0]
	for i, sess := range s.sessions[:n] {
		if shape.Expansion != nil {
			s.trees = append(s.trees, s.expand(sess, i, rootTok, shape.Expansion))
		} else {
			s.trees = append(s.trees, s.grow(sess, rootTok, shape.Budget.WithDefaults()))
		}
	}
	trees := s.trees
	if n == 1 {
		return trees[0]
	}
	merged := tree.Merge(trees...)
	if shape.Expansion == nil && merged.NumSpeculated() > shape.Budget.MaxNodes {
		merged = pruneByPathProb(merged, shape.Budget.MaxNodes)
	}
	return merged
}

// expand builds one SSM's token tree level by level. At step i every
// frontier node receives its top-k_i tokens under the SSM's (policy-
// transformed) distribution; the recorded SSMProb is exactly the
// probability MSS later uses as P(x | u, Θ_SSM).
func (s *Speculator) expand(sess model.Session, ssmID int, rootTok model.Token, exp tree.ExpansionConfig) *tree.Tree {
	// Room for the whole tree up front, capped so a wide configuration
	// does not reserve nodes it may never fill; past the cap the node
	// list grows by appends.
	tr := tree.NewSized(rootTok, min(1+exp.MaxNodes(), 256))
	if s.seen == nil {
		s.seen = make(map[tree.NodeID]bool)
	}
	frontier := append(s.frontier[:0], tr.Root())
	for _, k := range exp {
		if len(frontier) == 0 {
			break
		}
		// One SSM decoding step per level: score the partial tree and
		// read the frontier nodes' distributions. The tree only grows
		// between calls, so an incremental session (the transformer's)
		// forwards just the previous level's new nodes against its
		// retained K/V rows — each node is drafted once, as §5.3's
		// small-overhead analysis assumes.
		dists := sess.DecodeTree(tr)
		seen := s.seen
		clear(seen)
		next := s.next[:0]
		for _, u := range frontier {
			d := s.proposalDist(dists[u])
			for _, tok := range s.pickChildren(d, k) {
				if d[tok] <= 0 {
					// Under greedy or tight nucleus policies fewer than k
					// tokens may carry mass; never propose zero-mass ones.
					continue
				}
				// Duplicate SampleK draws accumulate as proposals on one
				// child, preserving MSS's draft accounting.
				id := tr.AddChildDist(u, tok, d[tok], ssmID, d)
				if !seen[id] {
					seen[id] = true
					next = append(next, id)
				}
			}
		}
		// The level just expanded becomes the next level's buffer.
		frontier, s.next = next, frontier
	}
	s.frontier = frontier
	return tr
}

// proposalDist converts a raw SSM distribution into the proposal
// distribution used for expansion. Under stochastic decoding this is the
// request's transformed sampling distribution (so MSS compares matching
// quantities); under greedy decoding the SSM's full distribution is used —
// collapsing it to the policy's one-hot would make every tree width-1 and
// defeat expansion (the whole point of Table 1: the LLM's greedy token is
// usually in the SSM's top-k even when the top-1 misses).
func (s *Speculator) proposalDist(raw []float32) []float32 {
	if s.cfg.Sample.Mode == sampling.Greedy {
		return raw
	}
	return s.cfg.Sample.Transform(raw)
}

// pickChildren selects up to k candidate tokens from the proposal
// distribution: k SampleK draws under a stochastic policy, else its
// top k (see Config.ForceTopK).
// The result is valid until the next call.
func (s *Speculator) pickChildren(d []float32, k int) []int {
	if s.cfg.Sample.Mode != sampling.Stochastic || s.cfg.ForceTopK {
		return s.topk.TopK(d, k)
	}
	toks := s.picks[:0]
	for i := 0; i < k; i++ {
		toks = append(toks, s.rng.SampleCategorical(d))
	}
	s.picks = toks
	return toks
}

// pruneByPathProb trims a merged tree back to the node budget, keeping
// the highest-path-probability nodes (parent-closed, so the result is a
// valid token tree).
func pruneByPathProb(tr *tree.Tree, budget int) *tree.Tree {
	path := make([]float64, tr.Len())
	path[0] = 1
	for _, id := range tr.DFSOrder() {
		if id == 0 {
			continue
		}
		n := tr.Node(id)
		path[id] = path[n.Parent] * float64(n.SSMProb())
	}
	return tr.PruneToBudget(budget, func(id tree.NodeID) float64 { return path[id] })
}
