package verifier

import (
	"math"
	"testing"

	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// chainTree builds root -> a -> b where a is drawn from q0 (proposal dist
// q0 at the root) and b from q1 (proposal dist q1 at a). Returns the tree
// and per-node LLM dists: p0 at the root, p1 at a, p2 at b.
func chainTree(rng *tensor.RNG, rootTok int, q0, q1, p0, p1, p2 []float32) (*tree.Tree, [][]float32) {
	tr := tree.New(rootTok)
	a := rng.SampleCategorical(q0)
	an := tr.AddChildDist(tr.Root(), a, q0[a], 0, q0)
	b := rng.SampleCategorical(q1)
	bn := tr.AddChildDist(an, b, q1[b], 0, q1)
	dists := make([][]float32, tr.Len())
	dists[tr.Root()] = p0
	dists[an] = p1
	dists[bn] = p2
	return tr, dists
}

// TestTraversalPreservesDistribution is the depth-2 empirical losslessness
// check, the traversal analogue of TestMSSPreservesDistribution but
// stronger: it pins the whole committed process, not just the first
// token. With a the root draft (from q0) and b its chain extension (from
// q1), exact verification requires
//
//	P(first = x)                   = p0(x)            (first-token marginal)
//	P(len>=2, first=x, second=y)   = min(q0(x), p0(x)) * p1(y)
//	P(third = z | len == 3)        = p2(z)            (bonus after full accept)
//
// where min(q0(x), p0(x)) is the exact probability that the drafted first
// token x commits. The second identity is the heart of traversal
// verification: the committed second token must follow p1 regardless of
// whether it arrived via the full-chain coin or a stop coin's residual.
func TestTraversalPreservesDistribution(t *testing.T) {
	p0 := []float32{0.05, 0.50, 0.20, 0.25}
	p1 := []float32{0.30, 0.10, 0.40, 0.20}
	p2 := []float32{0.25, 0.25, 0.25, 0.25}
	q0 := []float32{0.70, 0.05, 0.20, 0.05} // badly aligned with p0
	q1 := []float32{0.10, 0.60, 0.20, 0.10} // badly aligned with p1
	policy := sampling.StochasticConfig()
	rng := tensor.NewRNG(77)

	n := 200000
	first := make([]int, 4)
	joint := make([][]int, 4)
	for i := range joint {
		joint[i] = make([]int, 4)
	}
	third := make([]int, 4)
	full := 0
	for i := 0; i < n; i++ {
		tr, dists := chainTree(rng, 9, q0, q1, p0, p1, p2)
		got := mustTraversal(t, dists, tr, policy, rng)
		first[got[0]]++
		if len(got) >= 2 {
			joint[got[0]][got[1]]++
		}
		if len(got) == 3 {
			third[got[2]]++
			full++
		}
	}
	for x := range p0 {
		freq := float64(first[x]) / float64(n)
		if math.Abs(freq-float64(p0[x])) > 0.01 {
			t.Fatalf("first token %d frequency %.4f, want %.4f (losslessness violated)", x, freq, p0[x])
		}
	}
	for x := range p0 {
		commit := math.Min(float64(q0[x]), float64(p0[x]))
		for y := range p1 {
			freq := float64(joint[x][y]) / float64(n)
			want := commit * float64(p1[y])
			if math.Abs(freq-want) > 0.01 {
				t.Fatalf("joint (%d,%d) frequency %.4f, want %.4f (second-token distribution violated)",
					x, y, freq, want)
			}
		}
	}
	if full == 0 {
		t.Fatal("no full-chain accepts; the fixture does not exercise the deep path")
	}
	for z := range p2 {
		freq := float64(third[z]) / float64(full)
		if math.Abs(freq-float64(p2[z])) > 0.02 {
			t.Fatalf("bonus token %d frequency %.4f, want %.4f", z, freq, p2[z])
		}
	}
}

// TestTraversalPreservesTransformedDistribution: losslessness must hold
// under a truncating policy too (temperature + top-k), with proposals
// expressed under the same policy.
func TestTraversalPreservesTransformedDistribution(t *testing.T) {
	raw := []float32{0.05, 0.50, 0.20, 0.25}
	policy := sampling.Config{Mode: sampling.Stochastic, Temperature: 0.7, TopK: 3}
	target := policy.Transform(raw)
	q := policy.Transform([]float32{0.60, 0.10, 0.05, 0.25})
	rng := tensor.NewRNG(31)

	n := 200000
	counts := make([]int, len(raw))
	for i := 0; i < n; i++ {
		tr, dists := chainTree(rng, 9, q, q, raw, raw, raw)
		got := mustTraversal(t, dists, tr, policy, rng)
		counts[got[0]]++
	}
	for i := range target {
		freq := float64(counts[i]) / float64(n)
		if math.Abs(freq-float64(target[i])) > 0.01 {
			t.Fatalf("token %d frequency %.4f, want %.4f", i, freq, target[i])
		}
	}
}

// TestTraversalPreservesTopPDistribution: same check under a nucleus
// (top-p) policy.
func TestTraversalPreservesTopPDistribution(t *testing.T) {
	raw := []float32{0.05, 0.50, 0.20, 0.25}
	policy := sampling.Config{Mode: sampling.Stochastic, TopP: 0.8}
	target := policy.Transform(raw)
	q := policy.Transform([]float32{0.45, 0.05, 0.30, 0.20})
	rng := tensor.NewRNG(101)

	n := 200000
	counts := make([]int, len(raw))
	for i := 0; i < n; i++ {
		tr, dists := chainTree(rng, 9, q, q, raw, raw, raw)
		got := mustTraversal(t, dists, tr, policy, rng)
		counts[got[0]]++
	}
	for i := range target {
		freq := float64(counts[i]) / float64(n)
		if math.Abs(freq-float64(target[i])) > 0.01 {
			t.Fatalf("token %d frequency %.4f, want %.4f", i, freq, target[i])
		}
	}
}

// TestTraversalGreedyPolicyMatchesGreedy: under a greedy policy the
// transformed target is one-hot, so every chain ratio is 0 or 1 and
// traversal verification must reproduce VerifyGreedy's argmax descent
// exactly, for every RNG stream.
func TestTraversalGreedyPolicyMatchesGreedy(t *testing.T) {
	q := []float32{0.25, 0.25, 0.25, 0.25}
	for seed := uint64(1); seed <= 16; seed++ {
		rng := tensor.NewRNG(seed)
		gen := tensor.NewRNG(seed * 7919)
		// Random per-node dists over a sampled depth-2 chain.
		randDist := func() []float32 {
			d := make([]float32, 4)
			var sum float32
			for i := range d {
				d[i] = float32(gen.Float64()) + 0.01
				sum += d[i]
			}
			for i := range d {
				d[i] /= sum
			}
			return d
		}
		tr, dists := chainTree(gen, 9, q, q, randDist(), randDist(), randDist())
		want := VerifyGreedy(dists, tr)
		got := mustTraversal(t, dists, tr, sampling.GreedyConfig(), rng)
		if len(got) != len(want) {
			t.Fatalf("seed %d: traversal %v, greedy %v", seed, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: traversal %v, greedy %v", seed, got, want)
			}
		}
	}
}

// TestTraversalNeverCommitsPolicyZeroedToken is the adversarial support
// check mirroring TestMSSNeverCommitsPolicyZeroedToken: the SSM piles
// mass on a token the top-2 policy zeroes out; no RNG stream may commit
// it, from any of the traversal code paths (chain accept, stop residual,
// fall-through residual, final sample).
func TestTraversalNeverCommitsPolicyZeroedToken(t *testing.T) {
	p := []float32{0.5, 0.4, 0.06, 0.04}   // top-2 keeps tokens 0 and 1
	q := []float32{0.01, 0.01, 0.01, 0.97} // SSM pushes token 3
	policy := sampling.Config{Mode: sampling.Stochastic, Temperature: 1, TopK: 2}
	for seed := uint64(1); seed <= 32; seed++ {
		rng := tensor.NewRNG(seed)
		for i := 0; i < 500; i++ {
			tr, dists := chainTree(rng, 9, q, q, p, p, p)
			got := mustTraversal(t, dists, tr, policy, rng)
			for _, tok := range got {
				if tok >= 2 {
					t.Fatalf("seed %d: committed token %d, zeroed by top-2 policy (got %v)", seed, tok, got)
				}
			}
		}
	}
}

// TestTraversalPerfectProposalFullAccept: when the proposal equals the
// target at every level, every carry w_j is 1 and the full chain must
// commit on the first coin, producing depth+1 tokens.
func TestTraversalPerfectProposalFullAccept(t *testing.T) {
	p := []float32{0.5, 0.3, 0.2}
	policy := sampling.StochasticConfig()
	rng := tensor.NewRNG(8)
	for i := 0; i < 2000; i++ {
		tr := tree.New(9)
		u := tr.Root()
		toks := make([]int, 0, 4)
		for d := 0; d < 4; d++ {
			c := rng.SampleCategorical(p)
			u = tr.AddChildDist(u, c, p[c], 0, p)
			toks = append(toks, c)
		}
		got := mustTraversal(t, fixedDists(tr, p), tr, policy, rng)
		if len(got) != 5 {
			t.Fatalf("perfect chain not fully accepted: got %v want %v + bonus", got, toks)
		}
		for j, tok := range toks {
			if got[j] != tok {
				t.Fatalf("committed %v, speculated %v", got, toks)
			}
		}
	}
}

// TestTraversalDuplicateDrawsPreserveDistribution: duplicate SSM draws of
// the same token accumulate as proposals on one child; traversal must
// process the exact draw multiset (each rejection subtracts its own q)
// and stay lossless.
func TestTraversalDuplicateDrawsPreserveDistribution(t *testing.T) {
	p := []float32{0.05, 0.50, 0.20, 0.25}
	q := []float32{0.70, 0.05, 0.20, 0.05}
	policy := sampling.StochasticConfig()
	rng := tensor.NewRNG(41)

	n := 200000
	counts := make([]int, len(p))
	for i := 0; i < n; i++ {
		tr := tree.New(9)
		c1 := rng.SampleCategorical(q)
		c2 := rng.SampleCategorical(q)
		tr.AddChildDist(tr.Root(), c1, q[c1], 0, q)
		tr.AddChildDist(tr.Root(), c2, q[c2], 0, q)
		got := mustTraversal(t, fixedDists(tr, p), tr, policy, rng)
		counts[got[0]]++
	}
	for i := range p {
		freq := float64(counts[i]) / float64(n)
		if math.Abs(freq-float64(p[i])) > 0.01 {
			t.Fatalf("token %d frequency %.4f, want %.4f", i, freq, p[i])
		}
	}
}

// TestTraversalAcceptLengthBeatsMSS runs both verifiers over identical
// (tree, dists) chain instances with independent RNG streams: traversal's
// conditional deeper acceptance min(1/w_i, r_{i+1}) dominates MSS's
// min(1, r_{i+1}) on chains, so its mean accept length must be >= MSS's
// (up to sampling noise).
func TestTraversalAcceptLengthBeatsMSS(t *testing.T) {
	p0 := []float32{0.05, 0.50, 0.20, 0.25}
	p1 := []float32{0.30, 0.10, 0.40, 0.20}
	q0 := []float32{0.40, 0.20, 0.25, 0.15}
	q1 := []float32{0.25, 0.30, 0.25, 0.20}
	policy := sampling.StochasticConfig()
	gen := tensor.NewRNG(3)
	mssRNG := tensor.NewRNG(1001)
	travRNG := tensor.NewRNG(2002)

	n := 50000
	var mssLen, travLen int
	for i := 0; i < n; i++ {
		tr, dists := chainTree(gen, 9, q0, q1, p0, p1, p1)
		m := mustStochastic(t, dists, tr, policy, mssRNG)
		v := mustTraversal(t, dists, tr, policy, travRNG)
		mssLen += len(m) - 1
		travLen += len(v) - 1
	}
	mssMean := float64(mssLen) / float64(n)
	travMean := float64(travLen) / float64(n)
	if travMean < mssMean-0.02 {
		t.Fatalf("traversal mean accept length %.4f < MSS %.4f on identical trees", travMean, mssMean)
	}
	t.Logf("mean accept length: traversal %.4f, MSS %.4f", travMean, mssMean)
}
