// Package verifier implements SpecInfer's token tree verification (§4.3,
// Algorithm 2): greedy verification, multi-step speculative sampling (MSS,
// Theorem 4.2) and the naive-sampling baseline (NS, Theorem 4.3) it is
// compared against in Table 3.
//
// A verifier consumes the LLM's per-node output distributions — produced
// by one tree-based parallel decoding pass (model.Session.DecodeTree) —
// and walks the speculated tree from the root, deciding which speculated
// tokens to keep. Every verification appends exactly one final token drawn
// from the LLM itself (the "bonus" token: Algorithm 2 lines 21 and 42-43),
// so even a completely wrong speculation makes the same progress as one
// incremental decoding step.
package verifier

import (
	"fmt"

	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// MissingDistError reports a speculated node whose proposal carries no SSM
// distribution. Stochastic verifiers need the full proposal distribution
// for the acceptance ratio and residual update; a tree built for greedy
// verification (nil Dist) fed to a stochastic verifier is a caller bug,
// surfaced as an error so one malformed request cannot kill a replica.
type MissingDistError struct {
	Node  tree.NodeID
	Token model.Token
}

func (e *MissingDistError) Error() string {
	return fmt.Sprintf("verifier: stochastic verification requires proposal distributions on speculated nodes (node %d, token %d has none)", e.Node, e.Token)
}

// VerifyGreedy implements Algorithm 2's VerifyGreedy: descend the tree
// while a child matches the LLM's argmax token, then append the argmax at
// the first miss (or past the deepest hit). dists[u] must be the LLM's
// temperature-1 distribution after sequence S_u, for every node u.
func VerifyGreedy(dists [][]float32, tr *tree.Tree) []model.Token {
	var verified []model.Token
	u := tr.Root()
	for {
		want, _ := tensor.ArgMax(dists[u])
		verified = append(verified, want)
		v := tr.ChildWithToken(u, want)
		if v == -1 {
			return verified
		}
		u = v
	}
}

// VerifyStochastic implements Algorithm 2's VerifyStochastic — multi-step
// speculative sampling. At each node it examines the children in uniformly
// random order: child s (token x, proposed from SSM distribution q_s) is
// accepted with probability min(1, p(x)/q_s(x)); on rejection the target
// is updated to the normalized residual max(0, p - q_s) before the next
// child is tried. If every child is rejected the next token is sampled
// from the final residual. The returned sequence follows exactly the LLM's
// sampling distribution (Theorem 4.2), which the package tests check
// empirically against adversarial proposals.
//
// policy is the request's decode policy; both the LLM distributions and
// the stored SSM proposals must be expressed under it (the speculator
// stores policy-transformed proposals).
func VerifyStochastic(dists [][]float32, tr *tree.Tree, policy sampling.Config, rng *tensor.RNG) ([]model.Token, error) {
	var verified []model.Token
	u := tr.Root()
	for !tr.IsLeaf(u) {
		p := policy.Transform(dists[u]) // fresh copy; mutated by residual updates
		// H is the multiset of SSM draws at u: one entry per proposal of
		// each child, so repeated draws of the same token are accounted
		// for exactly (each rejection subtracts its own q).
		type draft struct {
			node tree.NodeID
			prop tree.Proposal
		}
		var h []draft
		for _, c := range tr.Node(u).Children {
			for _, pr := range tr.Node(c).Proposals {
				h = append(h, draft{node: c, prop: pr})
			}
		}
		accepted := -1
		for len(h) > 0 {
			si := rng.Intn(len(h))
			s := h[si]
			x := tr.Node(s.node).Token
			q := s.prop.Dist
			if q == nil {
				return nil, &MissingDistError{Node: s.node, Token: x}
			}
			qx := float64(q[x])
			if qx > 0 && acceptDraft(rng.Float64(), float64(p[x]), qx) {
				accepted = s.node
				break
			}
			residualUpdate(p, q)
			h[si] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if accepted == -1 {
			// All speculated children rejected: sample from the residual.
			verified = append(verified, rng.SampleCategorical(p))
			return verified, nil
		}
		verified = append(verified, tr.Node(accepted).Token)
		u = accepted
	}
	// Reached a leaf with every token accepted: bonus token from the
	// leaf's own LLM distribution.
	verified = append(verified, policy.Sample(rng, dists[u]))
	return verified, nil
}

// residualUpdate applies MSS's rejection update in place:
// p <- norm(max(0, p - q)). When the residual cancels to zero everywhere —
// reachable when float32 normalization drift leaves q's mass >= p's over
// p's whole support — p is left unchanged rather than normalized. The old
// code let tensor.Normalize's zero-sum fallback replace p with uniform
// over the FULL vocab, leaking probability onto tokens the decode policy
// (top-k/top-p) had zeroed out; keeping p confines every later sample to
// the policy's support. (A zero residual means q dominates p, so rejecting
// and resampling from p itself is the distribution-faithful degenerate
// continuation.)
func residualUpdate(p, q []float32) {
	var sum float64
	for i := range p {
		r := p[i] - q[i]
		if r < 0 {
			r = 0
		}
		sum += float64(r)
	}
	if sum <= 0 {
		return
	}
	for i := range p {
		r := p[i] - q[i]
		if r < 0 {
			r = 0
		}
		p[i] = r
	}
	tensor.Normalize(p)
}

// acceptDraft is MSS's per-draft acceptance test: a draft token with
// target mass p and proposal mass q is accepted iff u < min(1, p/q),
// where u is a uniform draw from [0, 1). The comparison is strict and
// guarded on p > 0: with the historical `u <= p/q` form, a token the
// policy-transformed LLM distribution zeroes out (p == 0) would be
// accepted whenever u drew exactly 0, putting mass on a token the
// target assigns none — violating Theorem 4.2's distribution-
// preservation guarantee. Written as u*q < p to avoid the division
// (equivalent for q > 0, and q <= 0 rejects either way).
func acceptDraft(u, p, q float64) bool {
	return q > 0 && p > 0 && u*q < p
}

// VerifyNaive is the naive-sampling baseline of §4.3: sample the next
// token directly from the LLM's distribution and keep descending only
// while the sampled token happens to be a speculated child. Trivially
// distribution-preserving; strictly more rejective than MSS (Theorem 4.3).
func VerifyNaive(dists [][]float32, tr *tree.Tree, policy sampling.Config, rng *tensor.RNG) []model.Token {
	var verified []model.Token
	u := tr.Root()
	for {
		x := policy.Sample(rng, dists[u])
		verified = append(verified, x)
		v := tr.ChildWithToken(u, x)
		if v == -1 {
			return verified
		}
		u = v
	}
}
