// Package speculator implements SpecInfer's learning-based speculator
// (§3): constructing speculated token trees from one or more small
// speculative models (SSMs) via expansion-based construction (top-k
// branching under a static ⟨k_1..k_m⟩ expansion configuration) and
// merge-based construction (union of the trees proposed by multiple
// boost-tuned SSMs, Definition 3.2).
package speculator

import (
	"fmt"

	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// ExpandMode selects how the k children of a frontier node are chosen.
type ExpandMode int

const (
	// TopK takes the k highest-probability tokens (the paper's static
	// expansion strategy, §3). With stochastic verification this makes
	// the output distribution only approximately equal to the LLM's
	// (drafts are not samples of the proposal), so it is paired with
	// greedy decoding by default.
	TopK ExpandMode = iota
	// SampleK draws k i.i.d. samples from the proposal distribution
	// (duplicates merged). This is the premise under which Theorem 4.2's
	// exactness holds, and the default for stochastic decoding.
	SampleK
)

// Config configures a per-request speculator.
type Config struct {
	// Expansion is the per-SSM expansion configuration. Every SSM expands
	// with the same configuration; merge-based speculation with m SSMs
	// therefore proposes up to m times the sequences.
	Expansion tree.ExpansionConfig
	// Sample is the decode policy of the *request* (greedy/stochastic with
	// temperature etc.). SSM distributions are transformed with the same
	// policy so that MSS's acceptance ratios compare like with like.
	Sample sampling.Config
	// Expand chooses the expansion mode. The zero value (TopK) is
	// overridden to SampleK for stochastic policies unless ForceTopK is
	// set, preserving Theorem 4.2's exact distribution equivalence.
	Expand ExpandMode
	// ForceTopK keeps TopK expansion even under stochastic decoding.
	ForceTopK bool
	// Seed drives SampleK expansion randomness.
	Seed uint64
}

func (c Config) effectiveExpand() ExpandMode {
	if c.Sample.Mode == sampling.Stochastic && !c.ForceTopK {
		return SampleK
	}
	if c.ForceTopK {
		return TopK
	}
	return c.Expand
}

// Speculator drives the SSM sessions of a single request. It mirrors the
// request's committed sequence into every SSM session and produces one
// speculated token tree per decoding iteration.
type Speculator struct {
	cfg      Config
	ssms     []model.Model
	sessions []model.Session
	rng      *tensor.RNG
}

// New creates a speculator over the given SSM pool. At least one SSM is
// required; all SSMs must share the LLM's vocabulary.
func New(cfg Config, ssms ...model.Model) *Speculator {
	if len(ssms) == 0 {
		panic("speculator: need at least one SSM")
	}
	if msg := cfg.Expansion.Validate(); msg != "" {
		panic("speculator: " + msg)
	}
	vocab := ssms[0].VocabSize()
	for _, m := range ssms[1:] {
		if m.VocabSize() != vocab {
			panic("speculator: SSM vocabularies differ")
		}
	}
	s := &Speculator{cfg: cfg, ssms: ssms, rng: tensor.NewRNG(cfg.Seed ^ 0xabcdef123)}
	for _, m := range ssms {
		s.sessions = append(s.sessions, m.NewSession())
	}
	return s
}

// NumSSMs returns the size of the SSM pool.
func (s *Speculator) NumSSMs() int { return len(s.ssms) }

// Prefill feeds the request prompt to every SSM session.
func (s *Speculator) Prefill(prompt []model.Token) {
	for _, sess := range s.sessions {
		sess.Prefill(prompt)
	}
}

// Accept commits the verified tokens into every SSM session, keeping the
// speculator synchronized with the request's sequence.
func (s *Speculator) Accept(tokens []model.Token) {
	for _, sess := range s.sessions {
		sess.Accept(tokens)
	}
}

// Close releases every SSM session that holds releasable resources
// (model.Closer). The speculator must not be used afterwards.
func (s *Speculator) Close() {
	for _, sess := range s.sessions {
		if c, ok := sess.(model.Closer); ok {
			c.Close()
		}
	}
}

// Speculate produces the speculated token tree for the next iteration:
// each SSM expands its own tree under the expansion configuration, and the
// per-SSM trees are merged (Definition 3.2). rootTok must be the last
// committed token of the request.
func (s *Speculator) Speculate(rootTok model.Token) *tree.Tree {
	trees := make([]*tree.Tree, len(s.sessions))
	for i, sess := range s.sessions {
		trees[i] = s.expand(sess, i, rootTok)
	}
	if len(trees) == 1 {
		return trees[0]
	}
	return tree.Merge(trees...)
}

// expand builds one SSM's token tree level by level. At step i every
// frontier node receives its top-k_i tokens under the SSM's (policy-
// transformed) distribution; the recorded SSMProb is exactly the
// probability MSS later uses as P(x | u, Θ_SSM).
func (s *Speculator) expand(sess model.Session, ssmID int, rootTok model.Token) *tree.Tree {
	tr := tree.New(rootTok)
	frontier := []tree.NodeID{tr.Root()}
	for _, k := range s.cfg.Expansion {
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
		seen := make(map[tree.NodeID]bool)
		var next []tree.NodeID
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
				id := tr.AddProposal(u, tok, d[tok], ssmID, d)
				if !seen[id] {
					seen[id] = true
					next = append(next, id)
				}
			}
		}
		frontier = next
	}
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
// distribution according to the expansion mode.
func (s *Speculator) pickChildren(d []float32, k int) []int {
	if s.cfg.effectiveExpand() == TopK {
		return tensor.TopK(d, k)
	}
	toks := make([]int, 0, k)
	for i := 0; i < k; i++ {
		toks = append(toks, s.rng.SampleCategorical(d))
	}
	return toks
}

// NewSequence is the sequence-based baseline (prior work: a single SSM
// proposing a single token sequence). It is an ordinary Speculator
// with a width-1 expansion configuration; the constructor exists to make
// the baseline explicit in experiment code.
func NewSequence(depth int, sample sampling.Config, ssm model.Model) *Speculator {
	if depth < 1 {
		panic(fmt.Sprintf("speculator: sequence depth %d < 1", depth))
	}
	return New(Config{Expansion: tree.SequenceConfig(depth), Sample: sample}, ssm)
}
