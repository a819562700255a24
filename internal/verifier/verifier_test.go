package verifier

import (
	"errors"
	"math"
	"testing"

	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// fixedDists builds a dists slice where every node shares the same
// distribution.
func fixedDists(tr *tree.Tree, d []float32) [][]float32 {
	out := make([][]float32, tr.Len())
	for i := range out {
		out[i] = d
	}
	return out
}

// mustStochastic runs VerifyStochastic and fails the test on error (the
// fixtures here always carry proposal distributions).
func mustStochastic(t *testing.T, dists [][]float32, tr *tree.Tree, policy sampling.Config, rng *tensor.RNG) []int {
	t.Helper()
	got, err := VerifyStochastic(dists, tr, policy, rng)
	if err != nil {
		t.Fatalf("VerifyStochastic: %v", err)
	}
	return got
}

// mustTraversal is mustStochastic for VerifyTraversal.
func mustTraversal(t *testing.T, dists [][]float32, tr *tree.Tree, policy sampling.Config, rng *tensor.RNG) []int {
	t.Helper()
	got, err := VerifyTraversal(dists, tr, policy, rng)
	if err != nil {
		t.Fatalf("VerifyTraversal: %v", err)
	}
	return got
}

func TestVerifyGreedyFollowsMatchingPath(t *testing.T) {
	// Tree: root(0) -> 1 -> 2, root -> 3. LLM argmax: after root -> 1,
	// after 1 -> 2, after 2 -> 4 (off-tree bonus).
	tr := tree.New(0)
	n1 := tr.AddChild(tr.Root(), 1, 1, 0)
	tr.AddChild(n1, 2, 1, 0)
	tr.AddChild(tr.Root(), 3, 1, 0)

	vocab := 6
	oneHot := func(i int) []float32 {
		d := make([]float32, vocab)
		d[i] = 1
		return d
	}
	dists := make([][]float32, tr.Len())
	dists[tr.Root()] = oneHot(1)
	dists[n1] = oneHot(2)
	dists[tr.ChildWithToken(n1, 2)] = oneHot(4)
	dists[tr.ChildWithToken(tr.Root(), 3)] = oneHot(5)

	got := VerifyGreedy(dists, tr)
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("verified %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verified %v, want %v", got, want)
		}
	}
}

func TestVerifyGreedyImmediateMiss(t *testing.T) {
	tr := tree.New(0)
	tr.AddChild(tr.Root(), 1, 1, 0)
	d := []float32{0, 0, 1, 0} // argmax 2, not speculated
	got := VerifyGreedy(fixedDists(tr, d), tr)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want [2]", got)
	}
}

func TestVerifyGreedyAlwaysAppendsBonus(t *testing.T) {
	// Even on a root-only tree, one token must come out (the LLM's own).
	tr := tree.New(0)
	d := []float32{0, 1}
	got := VerifyGreedy(fixedDists(tr, d), tr)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v", got)
	}
}

// mssTree builds a one-level tree with the given child tokens, all
// proposed from distribution q.
func mssTree(root int, childToks []int, q []float32) *tree.Tree {
	tr := tree.New(root)
	for _, tok := range childToks {
		tr.AddChildDist(tr.Root(), tok, q[tok], 0, q)
	}
	return tr
}

// TestMSSPreservesDistribution is the empirical Theorem 4.2 check: the
// first token produced by MSS must follow the LLM's distribution exactly,
// for an adversarially mismatched proposal, when speculated children are
// genuine samples of the proposal.
func TestMSSPreservesDistribution(t *testing.T) {
	p := []float32{0.05, 0.50, 0.20, 0.25} // LLM
	q := []float32{0.70, 0.05, 0.20, 0.05} // badly aligned SSM
	policy := sampling.StochasticConfig()
	rng := tensor.NewRNG(77)

	n := 200000
	counts := make([]int, len(p))
	for i := 0; i < n; i++ {
		// Draw 2 children as samples from q (the premise of Theorem 4.2).
		// Duplicate draws accumulate as proposals on one node.
		tr := tree.New(9)
		c1 := rng.SampleCategorical(q)
		c2 := rng.SampleCategorical(q)
		tr.AddChildDist(tr.Root(), c1, q[c1], 0, q)
		tr.AddChildDist(tr.Root(), c2, q[c2], 0, q)
		got := mustStochastic(t, fixedDists(tr, p), tr, policy, rng)
		counts[got[0]]++
	}
	for i := range p {
		freq := float64(counts[i]) / float64(n)
		if math.Abs(freq-float64(p[i])) > 0.01 {
			t.Fatalf("token %d frequency %.4f, want %.4f (Theorem 4.2 violated)",
				i, freq, p[i])
		}
	}
}

// TestMSSMultiSSMPreservesDistribution exercises the merge-based case:
// children proposed by different SSMs with different distributions.
func TestMSSMultiSSMPreservesDistribution(t *testing.T) {
	p := []float32{0.1, 0.4, 0.3, 0.2}
	q1 := []float32{0.6, 0.2, 0.1, 0.1}
	q2 := []float32{0.1, 0.1, 0.2, 0.6}
	policy := sampling.StochasticConfig()
	rng := tensor.NewRNG(13)

	n := 200000
	counts := make([]int, len(p))
	for i := 0; i < n; i++ {
		c1 := rng.SampleCategorical(q1)
		c2 := rng.SampleCategorical(q2)
		tr := tree.New(9)
		tr.AddChildDist(tr.Root(), c1, q1[c1], 0, q1)
		tr.AddChildDist(tr.Root(), c2, q2[c2], 1, q2)
		got := mustStochastic(t, fixedDists(tr, p), tr, policy, rng)
		counts[got[0]]++
	}
	for i := range p {
		freq := float64(counts[i]) / float64(n)
		if math.Abs(freq-float64(p[i])) > 0.01 {
			t.Fatalf("token %d frequency %.4f, want %.4f", i, freq, p[i])
		}
	}
}

// TestMSSBeatsNaiveSampling is the empirical Theorem 4.3 check: MSS's
// acceptance rate must dominate naive sampling's.
func TestMSSBeatsNaiveSampling(t *testing.T) {
	p := []float32{0.3, 0.3, 0.2, 0.2}
	q := []float32{0.4, 0.3, 0.2, 0.1}
	policy := sampling.StochasticConfig()
	rng := tensor.NewRNG(5)

	n := 50000
	mssAccepts, nsAccepts := 0, 0
	for i := 0; i < n; i++ {
		c := rng.SampleCategorical(q)
		tr := mssTree(9, []int{c}, q)
		dists := fixedDists(tr, p)
		if got := mustStochastic(t, dists, tr, policy, rng); len(got) == 2 {
			mssAccepts++ // child accepted + bonus
		}
		if got := VerifyNaive(dists, tr, policy, rng); len(got) == 2 {
			nsAccepts++
		}
	}
	if mssAccepts < nsAccepts {
		t.Fatalf("MSS accepted %d < NS %d (Theorem 4.3 violated)",
			mssAccepts, nsAccepts)
	}
}

func TestNaivePreservesDistribution(t *testing.T) {
	p := []float32{0.25, 0.25, 0.4, 0.1}
	q := []float32{1, 0, 0, 0}
	tr := mssTree(9, []int{0}, q)
	policy := sampling.StochasticConfig()
	rng := tensor.NewRNG(3)
	n := 100000
	counts := make([]int, len(p))
	for i := 0; i < n; i++ {
		got := VerifyNaive(fixedDists(tr, p), tr, policy, rng)
		counts[got[0]]++
	}
	for i := range p {
		freq := float64(counts[i]) / float64(n)
		if math.Abs(freq-float64(p[i])) > 0.01 {
			t.Fatalf("token %d frequency %.4f, want %.4f", i, freq, p[i])
		}
	}
}

func TestMSSPerfectProposalAlwaysAccepts(t *testing.T) {
	// If the SSM equals the LLM, the speculated child sampled from it must
	// always be accepted (ratio = 1).
	p := []float32{0.5, 0.3, 0.2}
	policy := sampling.StochasticConfig()
	rng := tensor.NewRNG(8)
	for i := 0; i < 2000; i++ {
		c := rng.SampleCategorical(p)
		tr := mssTree(9, []int{c}, p)
		got := mustStochastic(t, fixedDists(tr, p), tr, policy, rng)
		if len(got) != 2 || got[0] != c {
			t.Fatalf("perfect proposal rejected: got %v want child %d + bonus", got, c)
		}
	}
}

func TestMSSDeepTreeVerifiesMultiple(t *testing.T) {
	// A path tree proposed from the exact LLM distribution must be fully
	// accepted, producing depth+1 tokens.
	p := []float32{0, 1, 0} // always token 1
	tr := tree.New(1)
	u := tr.Root()
	for d := 0; d < 4; d++ {
		u = tr.AddChildDist(u, 1, 1, 0, p)
	}
	policy := sampling.StochasticConfig()
	got := mustStochastic(t, fixedDists(tr, p), tr, policy, tensor.NewRNG(1))
	if len(got) != 5 {
		t.Fatalf("verified %d tokens, want 5", len(got))
	}
	for _, tok := range got {
		if tok != 1 {
			t.Fatalf("unexpected token in %v", got)
		}
	}
}

func TestVerifyDispatch(t *testing.T) {
	p := []float32{0, 1}
	tr := tree.New(1)
	tr.AddChildDist(tr.Root(), 1, 1, 0, p)
	rng := tensor.NewRNG(2)
	g, gerr := Verify(fixedDists(tr, p), tr, sampling.GreedyConfig(), rng)
	s, serr := Verify(fixedDists(tr, p), tr, sampling.StochasticConfig(), rng)
	if gerr != nil || serr != nil {
		t.Fatalf("dispatch errors greedy=%v stochastic=%v", gerr, serr)
	}
	if len(g) != 2 || len(s) != 2 {
		t.Fatalf("dispatch results greedy=%v stochastic=%v", g, s)
	}
}

// TestStochasticRequiresSSMDist: a tree built for greedy verification
// (nil proposal Dist) fed to a stochastic verifier must fail with a
// MissingDistError naming the offending node and token — not panic, so a
// malformed request cannot take down a serving replica.
func TestStochasticRequiresSSMDist(t *testing.T) {
	tr := tree.New(0)
	id := tr.AddChild(tr.Root(), 1, 1, 0) // no SSMDist
	dists := fixedDists(tr, []float32{0.5, 0.5})
	for name, run := range map[string]func() ([]int, error){
		"mss": func() ([]int, error) {
			return VerifyStochastic(dists, tr, sampling.StochasticConfig(), tensor.NewRNG(1))
		},
		"traversal": func() ([]int, error) {
			return VerifyTraversal(dists, tr, sampling.StochasticConfig(), tensor.NewRNG(1))
		},
	} {
		got, err := run()
		if err == nil {
			t.Fatalf("%s: expected error without SSMDist, got %v", name, got)
		}
		var mde *MissingDistError
		if !errors.As(err, &mde) {
			t.Fatalf("%s: error %T %v, want *MissingDistError", name, err, err)
		}
		if mde.Node != id || mde.Token != 1 {
			t.Fatalf("%s: error names node %d token %d, want node %d token 1", name, mde.Node, mde.Token, id)
		}
	}
}

// TestMSSPreservesTransformedDistribution: Theorem 4.2 must hold for the
// policy-transformed distribution too (temperature + top-k), since that
// is what the LLM actually samples from in stochastic serving.
func TestMSSPreservesTransformedDistribution(t *testing.T) {
	raw := []float32{0.05, 0.50, 0.20, 0.25}
	policy := sampling.Config{Mode: sampling.Stochastic, Temperature: 0.7, TopK: 3}
	target := policy.Transform(raw)
	// The proposal is expressed under the same policy.
	q := policy.Transform([]float32{0.60, 0.10, 0.05, 0.25})
	rng := tensor.NewRNG(31)

	n := 200000
	counts := make([]int, len(raw))
	for i := 0; i < n; i++ {
		c := rng.SampleCategorical(q)
		tr := tree.New(9)
		tr.AddChildDist(tr.Root(), c, q[c], 0, q)
		got := mustStochastic(t, fixedDists(tr, raw), tr, policy, rng)
		counts[got[0]]++
	}
	for i := range target {
		freq := float64(counts[i]) / float64(n)
		if math.Abs(freq-float64(target[i])) > 0.01 {
			t.Fatalf("token %d frequency %.4f, want %.4f", i, freq, target[i])
		}
	}
}

// TestMSSZeroProposalProbability: a child whose recorded proposal mass is
// zero must simply be rejected, not crash or divide by zero.
func TestMSSZeroProposalProbability(t *testing.T) {
	p := []float32{0.5, 0.5}
	q := []float32{1, 0}
	tr := tree.New(9)
	tr.AddChildDist(tr.Root(), 1, 0, 0, q) // token 1 has q=0
	got := mustStochastic(t, fixedDists(tr, p), tr, sampling.StochasticConfig(), tensor.NewRNG(2))
	if len(got) != 1 {
		t.Fatalf("zero-probability child must be rejected, got %v", got)
	}
}

// TestAcceptDraftZeroTargetMass is the exact regression test for the
// zero-probability acceptance bug: with the historical `u <= p/q`
// acceptance rule, a draw of exactly u == 0 accepted a token whose
// target mass is zero. The rule must reject p == 0 for EVERY u,
// including the u == 0 corner the RNG can legitimately produce.
func TestAcceptDraftZeroTargetMass(t *testing.T) {
	if acceptDraft(0, 0, 0.97) {
		t.Fatal("u=0 accepted a token with zero target probability (Theorem 4.2 violated)")
	}
	for _, u := range []float64{0, 1e-300, 0.25, 0.999999} {
		if acceptDraft(u, 0, 0.5) {
			t.Fatalf("u=%v accepted zero-target-mass token", u)
		}
	}
}

// TestAcceptDraftBoundaries pins the rest of the acceptance rule:
// min(1, p/q) semantics, strict comparison, and rejection of degenerate
// proposal mass.
func TestAcceptDraftBoundaries(t *testing.T) {
	cases := []struct {
		u, p, q float64
		want    bool
	}{
		{0, 0.5, 0.5, true},         // ratio 1, u=0 accepts
		{0.9999999, 0.5, 0.5, true}, // ratio 1: every u in [0,1) accepts
		{0.9999999, 0.9, 0.3, true}, // ratio > 1 always accepts
		{0.5, 0.25, 0.5, false},     // u above the ratio rejects
		{0.49, 0.25, 0.5, true},     // u below the ratio accepts
		{0.5, 0.25, 0.5, false},     // u == ratio rejects (strict)
		{0.25, 0.5, 0, false},       // no proposal mass: reject
		{0, 1e-30, 1, true},         // tiny but positive target accepts at u=0
	}
	for _, c := range cases {
		if got := acceptDraft(c.u, c.p, c.q); got != c.want {
			t.Fatalf("acceptDraft(%v, %v, %v) = %v, want %v", c.u, c.p, c.q, got, c.want)
		}
	}
}

// TestStochasticZeroResidualStaysInPolicySupport is the regression test
// for the zero-residual distribution leak: when every rejection residual
// max(0, p - q) cancels to zero, the old code handed the all-zero vector
// to tensor.Normalize, whose zero-sum fallback is uniform over the FULL
// vocab — leaking probability onto tokens the top-k policy zeroed out.
//
// In exact arithmetic two normalized distributions cannot satisfy p <= q
// elementwise with strict inequality somewhere (q would sum past 1), but
// the verifier's inputs are float32 vectors that went through Normalize's
// float32 division, so each sums to 1 only up to rounding — q's mass over
// p's support can legitimately exceed p's. The fixture exaggerates that
// drift (q sums to 1.1) to make the rejection branch land often enough to
// fail fast on the pre-fix code: p_t = top-2(p) = [5/9, 4/9, 0, 0] is
// dominated by q on its whole support, so every rejection (about 7% of
// draws) zeroes the residual; pre-fix, the follow-up sample then picked
// tokens 2 and 3 with probability 1/2.
func TestStochasticZeroResidualStaysInPolicySupport(t *testing.T) {
	p := []float32{0.5, 0.4, 0.06, 0.04} // top-2 keeps tokens 0 and 1
	q := []float32{0.6, 0.5, 0, 0}       // dominates top-2(p); norm drift exaggerated
	policy := sampling.Config{Mode: sampling.Stochastic, Temperature: 1, TopK: 2}
	verifiers := map[string]func([][]float32, *tree.Tree, sampling.Config, *tensor.RNG) ([]int, error){
		"mss":       VerifyStochastic,
		"traversal": VerifyTraversal,
	}
	for name, run := range verifiers {
		for seed := uint64(1); seed <= 32; seed++ {
			rng := tensor.NewRNG(seed)
			for i := 0; i < 500; i++ {
				tr := tree.New(9)
				tr.AddChildDist(tr.Root(), 0, q[0], 0, q)
				got, err := run(fixedDists(tr, p), tr, policy, rng)
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				for _, tok := range got {
					if tok >= 2 {
						t.Fatalf("%s seed %d: zero residual leaked token %d outside the top-2 support (got %v)",
							name, seed, tok, got)
					}
				}
			}
		}
	}
}

// TestDuplicateChildProposalsMerge is the duplicate-token-children
// regression: ensemble SSMs can speculate the same token under one
// parent, and tree.ChildWithToken returns the first match — so before
// dedupe-at-build, greedy and naive descent silently ignored the later
// sibling's entire subtree. AddChildDist now merges equal-token siblings;
// this pins the merge and that all three verifiers reach the subtree that
// used to hang off the orphaned duplicate.
func TestDuplicateChildProposalsMerge(t *testing.T) {
	vocab := 5
	oneHot := func(i int) []float32 {
		d := make([]float32, vocab)
		d[i] = 1
		return d
	}
	q1 := []float32{0.1, 0.6, 0.1, 0.1, 0.1}
	q2 := []float32{0.1, 0.5, 0.2, 0.1, 0.1}
	build := func() (*tree.Tree, [][]float32) {
		tr := tree.New(0)
		a := tr.AddChildDist(tr.Root(), 1, q1[1], 0, q1)
		b := tr.AddChildDist(tr.Root(), 1, q2[1], 1, q2) // duplicate token from SSM 1
		if a != b {
			t.Fatalf("duplicate-token child not merged: ids %d and %d", a, b)
		}
		if got := len(tr.Node(a).Proposals); got != 2 {
			t.Fatalf("merged child has %d proposals, want 2", got)
		}
		// The second SSM's subtree: only reachable through the merged child.
		g := tr.AddChildDist(b, 2, q2[2], 1, q2)
		dists := make([][]float32, tr.Len())
		dists[tr.Root()] = oneHot(1)
		dists[a] = oneHot(2)
		dists[g] = oneHot(3)
		return tr, dists
	}

	want := []int{1, 2, 3}
	check := func(name string, got []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s on duplicate-child tree: got %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s on duplicate-child tree: got %v, want %v", name, got, want)
			}
		}
	}

	tr, dists := build()
	check("greedy", VerifyGreedy(dists, tr))
	check("naive", VerifyNaive(dists, tr, sampling.StochasticConfig(), tensor.NewRNG(1)))
	check("mss", mustStochastic(t, dists, tr, sampling.StochasticConfig(), tensor.NewRNG(1)))
	check("traversal", mustTraversal(t, dists, tr, sampling.StochasticConfig(), tensor.NewRNG(1)))
}

// TestGreedyNaiveEdgeCases is the table-driven edge suite for the two
// non-MSS verifiers: root-only trees, full deepest-path acceptance, and
// argmax tie-breaking (first index wins, so verification is
// deterministic).
func TestGreedyNaiveEdgeCases(t *testing.T) {
	oneHot := func(n, i int) []float32 {
		d := make([]float32, n)
		d[i] = 1
		return d
	}
	type tc struct {
		name  string
		build func() (*tree.Tree, [][]float32)
		want  []int
	}
	cases := []tc{
		{
			name: "root-only tree emits exactly the bonus token",
			build: func() (*tree.Tree, [][]float32) {
				tr := tree.New(0)
				return tr, fixedDists(tr, []float32{0, 0, 1})
			},
			want: []int{2},
		},
		{
			name: "deepest path fully accepted plus off-tree bonus",
			build: func() (*tree.Tree, [][]float32) {
				tr := tree.New(0)
				a := tr.AddChildDist(tr.Root(), 1, 1, 0, oneHot(5, 1))
				b := tr.AddChildDist(a, 2, 1, 0, oneHot(5, 2))
				c := tr.AddChildDist(b, 3, 1, 0, oneHot(5, 3))
				tr.AddChildDist(tr.Root(), 4, 1, 0, oneHot(5, 4)) // decoy branch
				dists := make([][]float32, tr.Len())
				dists[tr.Root()] = oneHot(5, 1)
				dists[a] = oneHot(5, 2)
				dists[b] = oneHot(5, 3)
				dists[c] = oneHot(5, 4)
				dists[tr.ChildWithToken(tr.Root(), 4)] = oneHot(5, 0)
				return tr, dists
			},
			want: []int{1, 2, 3, 4},
		},
		{
			name: "argmax ties break to the first index",
			build: func() (*tree.Tree, [][]float32) {
				tr := tree.New(0)
				tr.AddChildDist(tr.Root(), 2, 1, 0, oneHot(4, 2))
				// Tokens 1 and 2 tie; index 1 must win, missing the child.
				return tr, fixedDists(tr, []float32{0.1, 0.4, 0.4, 0.1})
			},
			want: []int{1},
		},
	}
	for _, c := range cases {
		tr, dists := c.build()
		for name, got := range map[string][]int{
			"greedy": VerifyGreedy(dists, tr),
			// A greedy policy makes naive's per-step sample the argmax, so
			// its descent is deterministic and shares the tie-break rule.
			"naive": VerifyNaive(dists, tr, sampling.GreedyConfig(), tensor.NewRNG(7)),
		} {
			if len(got) != len(c.want) {
				t.Fatalf("%s/%s: got %v, want %v", c.name, name, got, c.want)
			}
			for i := range c.want {
				if got[i] != c.want[i] {
					t.Fatalf("%s/%s: got %v, want %v", c.name, name, got, c.want)
				}
			}
		}
	}
}

// TestMSSNeverCommitsPolicyZeroedToken is the adversarial integration
// check: the SSM piles its proposal mass on a token the TOP-K-transformed
// LLM distribution zeroes out. No RNG stream may ever commit that token —
// neither by accepting the draft (the fixed acceptance rule) nor from the
// residual (zero mass there by construction).
func TestMSSNeverCommitsPolicyZeroedToken(t *testing.T) {
	p := []float32{0.5, 0.4, 0.06, 0.04}   // top-2 keeps tokens 0 and 1
	q := []float32{0.01, 0.01, 0.01, 0.97} // SSM pushes token 3
	policy := sampling.Config{Mode: sampling.Stochastic, Temperature: 1, TopK: 2}
	for seed := uint64(1); seed <= 32; seed++ {
		rng := tensor.NewRNG(seed)
		for i := 0; i < 500; i++ {
			c := rng.SampleCategorical(q)
			tr := tree.New(9)
			tr.AddChildDist(tr.Root(), c, q[c], 0, q)
			got := mustStochastic(t, fixedDists(tr, p), tr, policy, rng)
			if got[0] >= 2 {
				t.Fatalf("seed %d: committed token %d, zeroed by top-2 policy", seed, got[0])
			}
		}
	}
}
