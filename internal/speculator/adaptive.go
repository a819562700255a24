package speculator

import (
	"sort"

	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// AdaptiveConfig parameterizes dynamic token tree expansion — the open
// problem §3 of the paper explicitly leaves as future work ("dynamically
// expanding a token tree from an SSM"). Instead of a static ⟨k_1..k_m⟩
// shape, the tree grows best-first under a node budget: candidate tokens
// are ranked by their full path probability under the SSM, so wide
// branching happens exactly where the SSM is uncertain-but-covering and
// deep chains happen where it is confident.
//
// Note on stochastic decoding: adaptive expansion picks drafts
// deterministically (best-first), so the distribution a draft was
// actually drawn from is the point mass on it, not the SSM's
// distribution q that ranked it. Under stochastic sampling every
// admitted node therefore records that point mass as its proposal
// (q is kept for ranking only, and as the node's Prob). The verifiers'
// acceptance ratio then becomes p(x) and their residual update removes
// x from the target — sampling without replacement over the drafted
// children, which preserves the LLM's distribution exactly (Theorem
// 4.2) whatever tokens were picked. Recording q instead would emit a
// draft x with probability p(x)/q(x) > p(x) whenever p(x) < q(x) < 1.
// Best-first drafts accept fewer tokens under MSS than sampled drafts
// do (see the ablation bench); the grower is primarily intended for
// greedy decoding, where it beats the static configuration at an equal
// node budget.
type AdaptiveConfig struct {
	// MaxNodes is the speculated-node budget per tree (compare against a
	// static config's MaxNodes() for an equal-budget ablation).
	MaxNodes int
	// MaxDepth bounds the speculation depth (the paper uses 8).
	MaxDepth int
	// MinPathProb prunes candidates whose SSM path probability falls
	// below this threshold; 0 disables pruning.
	MinPathProb float64
	// FanoutCap bounds how many children one node may receive (guards a
	// degenerate flat tree on near-uniform SSM distributions).
	FanoutCap int
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.MaxNodes == 0 {
		c.MaxNodes = 10
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 8
	}
	if c.FanoutCap == 0 {
		c.FanoutCap = 4
	}
	return c
}

// AdaptiveSpeculator drives one SSM with dynamic tree expansion. It
// implements the same Prefill/Speculate/Accept lifecycle as Speculator so
// the engine can use either interchangeably.
type AdaptiveSpeculator struct {
	cfg     AdaptiveConfig
	sample  sampling.Config
	ssm     model.Model
	session model.Session
}

// NewAdaptive creates an adaptive speculator over a single SSM.
func NewAdaptive(cfg AdaptiveConfig, sample sampling.Config, ssm model.Model) *AdaptiveSpeculator {
	cfg = cfg.withDefaults()
	if ssm == nil {
		panic("speculator: adaptive speculator needs an SSM")
	}
	return &AdaptiveSpeculator{cfg: cfg, sample: sample, ssm: ssm, session: ssm.NewSession()}
}

// Prefill feeds the request prompt to the SSM session.
func (a *AdaptiveSpeculator) Prefill(prompt []model.Token) { a.session.Prefill(prompt) }

// Accept commits verified tokens into the SSM session.
func (a *AdaptiveSpeculator) Accept(tokens []model.Token) { a.session.Accept(tokens) }

// Close releases the SSM session if it holds releasable resources.
func (a *AdaptiveSpeculator) Close() {
	if c, ok := a.session.(model.Closer); ok {
		c.Close()
	}
}

// Speculate grows a token tree best-first under the configured node
// budget (see SpeculateBudget).
func (a *AdaptiveSpeculator) Speculate(rootTok model.Token) *tree.Tree {
	return a.SpeculateBudget(rootTok, a.cfg)
}

// frontierNode is the cached expansion state of one tree node within a
// single SpeculateBudget call. The proposal distribution and the
// candidate-token ordering of a node never change across waves (the
// node's context is fixed once it is admitted), so both are derived
// exactly once — earlier revisions re-cloned and re-ranked every node
// every wave, including nodes already saturated at FanoutCap/MaxDepth.
type frontierNode struct {
	path  float64       // SSM path probability of the node's sequence
	dist  []float32     // proposal distribution at the node (cloned once)
	order []model.Token // positive-prob candidate tokens, best first; nil when depth-saturated
	next  int           // index into order of the next unproposed token
}

// SpeculateBudget grows a token tree best-first under a caller-supplied
// budget, letting a per-iteration policy reshape the tree without
// rebuilding the speculator (the SSM session and its KV cache persist
// across calls). Each wave scores the current tree with one SSM pass —
// on an incremental session only the nodes the previous wave admitted
// run through the model — proposes for every unsaturated node its next unused tokens up to the
// node's remaining fanout, ranks the proposals by path probability, and
// admits the best ones; it stops when the budget is exhausted or no
// candidate clears the probability threshold. Zero budget fields take
// the package defaults (see AdaptiveConfig).
func (a *AdaptiveSpeculator) SpeculateBudget(rootTok model.Token, cfg AdaptiveConfig) *tree.Tree {
	cfg = cfg.withDefaults()
	tr := tree.New(rootTok)
	fr := []*frontierNode{{path: 1}}
	scored := 0 // nodes whose frontier state has been derived

	for tr.NumSpeculated() < cfg.MaxNodes {
		// One SSM pass scores the tree (forwarding only the nodes
		// appended since the previous wave, on an incremental session);
		// only those nodes need their proposal state derived.
		dists := a.session.DecodeTree(tr)
		for id := scored; id < tr.Len(); id++ {
			if tr.Node(id).Depth >= cfg.MaxDepth {
				continue // depth-saturated: never extends, keep order nil
			}
			d := a.proposalDist(dists[id])
			fr[id].dist = d
			fr[id].order = topPositive(d, cfg.FanoutCap)
		}
		scored = tr.Len()

		type cand struct {
			parent tree.NodeID
			ord    int // index into the parent's candidate order
			score  float64
		}
		var cands []cand
		for id := 0; id < tr.Len(); id++ {
			f := fr[id]
			if f.order == nil {
				continue
			}
			// Propose at most the node's remaining fanout room, so one
			// wave can never admit past FanoutCap.
			room := cfg.FanoutCap - len(tr.Node(id).Children)
			for k := f.next; k < len(f.order) && k-f.next < room; k++ {
				score := f.path * float64(f.dist[f.order[k]])
				if cfg.MinPathProb > 0 && score < cfg.MinPathProb {
					break // order is descending: the rest score lower still
				}
				cands = append(cands, cand{parent: id, ord: k, score: score})
			}
		}
		if len(cands) == 0 {
			break
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
		// Admit up to half the remaining budget per wave so later waves
		// can react to the deeper frontier, but always at least one.
		admit := (cfg.MaxNodes - tr.NumSpeculated() + 1) / 2
		if admit < 1 {
			admit = 1
		}
		added := 0
		for _, c := range cands {
			if added == admit || tr.NumSpeculated() == cfg.MaxNodes {
				break
			}
			f := fr[c.parent]
			tok := f.order[c.ord]
			if tr.ChildWithToken(c.parent, tok) != -1 {
				continue // already admitted (defensive: order tokens are distinct)
			}
			tr.AddChildDist(c.parent, tok, f.dist[tok], 0, a.drawnFrom(tok, f.dist))
			fr = append(fr, &frontierNode{path: c.score})
			if c.ord >= f.next {
				f.next = c.ord + 1
			}
			added++
		}
		if added == 0 {
			break
		}
	}
	return tr
}

// proposalDist derives the proposal distribution recorded on admitted
// nodes from a raw DecodeTree output. The raw slice may be RETAINED
// scratch of the SSM session (model.Session allows implementations to
// alias returned distributions until the next commit), and Speculate
// runs several DecodeTree waves before any commit while the admitted
// nodes' dists outlive Speculate entirely (MSS verification reads them
// after the LLM pass). A later wave — or any session that recycles its
// buffers — would corrupt the stored copies, so the greedy path clones;
// the stochastic path's Transform already allocates a fresh slice.
func (a *AdaptiveSpeculator) proposalDist(raw []float32) []float32 {
	if a.sample.Mode == sampling.Greedy {
		return append([]float32(nil), raw...)
	}
	return a.sample.Transform(raw)
}

// drawnFrom is the proposal distribution recorded for an admitted
// draft: the point mass on tok under stochastic sampling, where the
// deterministic pick is what the verifier must correct for, and the
// ranking distribution itself under greedy decoding, where no verifier
// reads it.
func (a *AdaptiveSpeculator) drawnFrom(tok model.Token, ranked []float32) []float32 {
	if a.sample.Mode == sampling.Greedy {
		return ranked
	}
	pm := make([]float32, len(ranked))
	pm[tok] = 1
	return pm
}

// topPositive returns up to k positive-probability tokens of d in
// descending probability order — a node's complete candidate list, since
// it can never receive more than FanoutCap children. The fixed ordering
// replaces the old per-wave topUnused shortlist, whose
// limit+len(children) sizing could under-return eligible tokens when
// existing children and zero-probability entries both landed inside the
// shortlist.
func topPositive(d []float32, k int) []model.Token {
	var out []model.Token
	for _, tok := range tensor.TopK(d, k) {
		if d[tok] <= 0 {
			break // TopK is descending: the rest are non-positive too
		}
		out = append(out, tok)
	}
	return out
}
