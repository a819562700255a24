package speculator

import (
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/ngram"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// checkTreeInvariants asserts the structural guarantees best-first
// growth makes: sibling tokens are distinct with exactly one proposal each (no
// duplicate (parent, token) admissions — AddChildDist would silently
// merge them into an extra proposal), fanout respects the cap, and
// depth respects the bound.
func checkTreeInvariants(t *testing.T, tr *tree.Tree, cfg tree.Budget) {
	t.Helper()
	for id := 0; id < tr.Len(); id++ {
		n := tr.Node(id)
		if len(n.Children) > cfg.FanoutCap {
			t.Fatalf("node %d has %d children, FanoutCap %d:\n%s",
				id, len(n.Children), cfg.FanoutCap, tr)
		}
		if n.Depth > cfg.MaxDepth {
			t.Fatalf("node %d at depth %d, MaxDepth %d", id, n.Depth, cfg.MaxDepth)
		}
		seen := map[tree.Token]bool{}
		for _, c := range n.Children {
			tok := tr.Node(c).Token
			if seen[tok] {
				t.Fatalf("node %d has duplicate child token %d:\n%s", id, tok, tr)
			}
			seen[tok] = true
		}
		if id > 0 && len(n.Proposals) != 1 {
			// A second proposal on a node means Speculate admitted the
			// same (parent, token) pair twice and the tree merged it.
			t.Fatalf("node %d carries %d proposals, want exactly 1", id, len(n.Proposals))
		}
	}
}

// TestAdaptiveNoDuplicateAdmissions drives Speculate across greedy and
// stochastic decode policies and several prompts, asserting no wave
// ever re-admits an existing (parent, token) pair and no node exceeds
// the fanout cap — the regression for the old per-wave rescoring path,
// which could admit more children than FanoutCap in a single wave.
func TestAdaptiveNoDuplicateAdmissions(t *testing.T) {
	_, ssm, mk := trainedPair(t)
	cfg := tree.Budget{MaxNodes: 24, MaxDepth: 6, FanoutCap: 3}
	for _, sample := range []sampling.Config{sampling.GreedyConfig(), sampling.StochasticConfig()} {
		for seed := uint64(1); seed <= 5; seed++ {
			a := New(Config{Sample: sample}, ssm)
			prompt := mk.Generate(tensor.NewRNG(seed), 12)
			a.Prefill(prompt)
			tr := a.Speculate(prompt[len(prompt)-1], Shape{Budget: cfg})
			checkTreeInvariants(t, tr, cfg)
		}
	}
}

// TestAdaptiveFillsBudget: a smoothed n-gram SSM assigns positive
// probability everywhere, so eligible mass always exists and the grower
// must use its entire node budget (the old topUnused shortlist could
// under-return candidates and stall early).
func TestAdaptiveFillsBudget(t *testing.T) {
	_, ssm, mk := trainedPair(t)
	prompt := mk.Generate(tensor.NewRNG(17), 12)
	for _, maxNodes := range []int{1, 2, 3, 5, 10, 16, 24} {
		cfg := tree.Budget{MaxNodes: maxNodes, MaxDepth: 8, FanoutCap: 4}
		a := New(Config{Sample: sampling.GreedyConfig()}, ssm)
		a.Prefill(prompt)
		tr := a.Speculate(prompt[len(prompt)-1], Shape{Budget: cfg})
		if tr.NumSpeculated() != maxNodes {
			t.Fatalf("MaxNodes=%d: speculated %d nodes, want the full budget:\n%s",
				maxNodes, tr.NumSpeculated(), tr)
		}
		checkTreeInvariants(t, tr, cfg)
	}
}

// TestAdaptiveConfigEdgeCases covers the degenerate budgets a policy
// layer can hand down per iteration.
func TestAdaptiveConfigEdgeCases(t *testing.T) {
	_, ssm, mk := trainedPair(t)
	prompt := mk.Generate(tensor.NewRNG(23), 12)
	cases := []struct {
		name      string
		cfg       tree.Budget
		wantNodes func(n int) bool
		desc      string
	}{
		{
			name:      "MaxNodes=1 yields a single-token draft",
			cfg:       tree.Budget{MaxNodes: 1, MaxDepth: 8, FanoutCap: 4},
			wantNodes: func(n int) bool { return n == 1 },
			desc:      "exactly 1",
		},
		{
			name:      "FanoutCap=1 yields a chain",
			cfg:       tree.Budget{MaxNodes: 6, MaxDepth: 8, FanoutCap: 1},
			wantNodes: func(n int) bool { return n == 6 },
			desc:      "exactly 6",
		},
		{
			name: "MinPathProb=1 prunes the frontier empty",
			cfg:  tree.Budget{MaxNodes: 8, MaxDepth: 8, FanoutCap: 4, MinPathProb: 1.0},
			// A smoothed SSM never puts probability 1 on a token, so no
			// candidate clears the threshold and the tree stays a root.
			wantNodes: func(n int) bool { return n == 0 },
			desc:      "0 (empty frontier)",
		},
		{
			name:      "MaxDepth=1 keeps all drafts at depth 1",
			cfg:       tree.Budget{MaxNodes: 8, MaxDepth: 1, FanoutCap: 3},
			wantNodes: func(n int) bool { return n == 3 }, // root fanout bounds the tree
			desc:      "3 (root fanout)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New(Config{Sample: sampling.GreedyConfig()}, ssm)
			a.Prefill(prompt)
			tr := a.Speculate(prompt[len(prompt)-1], Shape{Budget: tc.cfg})
			if !tc.wantNodes(tr.NumSpeculated()) {
				t.Fatalf("speculated %d nodes, want %s:\n%s", tr.NumSpeculated(), tc.desc, tr)
			}
			checkTreeInvariants(t, tr, tc.cfg)
			if tc.cfg.FanoutCap == 1 && tr.Depth() != tr.NumSpeculated() {
				t.Fatalf("FanoutCap=1 tree is not a chain: depth %d, nodes %d",
					tr.Depth(), tr.NumSpeculated())
			}
		})
	}
}

// TestSpeculateBudgetPerCall: a policy reshapes the tree every
// iteration through Speculate's shape without rebuilding the speculator —
// the SSM session persists and each call honors its own budget.
func TestSpeculateBudgetPerCall(t *testing.T) {
	_, ssm, mk := trainedPair(t)
	prompt := mk.Generate(tensor.NewRNG(29), 12)
	a := New(Config{Sample: sampling.GreedyConfig()}, ssm)
	a.Prefill(prompt)

	budgets := []tree.Budget{
		{MaxNodes: 16, MaxDepth: 8, FanoutCap: 3}, // latency-mode deep tree
		{MaxNodes: 2, MaxDepth: 2, FanoutCap: 1},  // throughput-mode stub
		{MaxNodes: 8, MaxDepth: 4, FanoutCap: 2},
	}
	last := prompt[len(prompt)-1]
	for i, cfg := range budgets {
		tr := a.Speculate(last, Shape{Budget: cfg})
		if tr.NumSpeculated() != cfg.MaxNodes {
			t.Fatalf("call %d: speculated %d nodes, want %d", i, tr.NumSpeculated(), cfg.MaxNodes)
		}
		checkTreeInvariants(t, tr, cfg)
		// Commit the best depth-1 child like the engine would, keeping
		// the session aligned for the next call.
		best := tr.Node(tr.Root()).Children[0]
		tok := tr.Node(best).Token
		a.Accept([]tree.Token{tok})
		last = tok
	}
}

// TestSpeculateBudgetMatchesStaticConfig: a best-first shape that
// drafts from one SSM of a larger pool grows exactly the tree the same
// budget grows over a pool of that SSM alone — merge and prune apply
// only across several trees.
func TestSpeculateBudgetMatchesStaticConfig(t *testing.T) {
	_, ssm, mk := trainedPair(t)
	other := ngram.New(ngram.Config{Name: "ssm2", Vocab: 192, Order: 2, Smoothing: 0.05})
	other.TrainCorpus(mk.Corpus(tensor.NewRNG(3), 20, 256))
	prompt := mk.Generate(tensor.NewRNG(37), 12)
	cfg := tree.Budget{MaxNodes: 12, MaxDepth: 6, FanoutCap: 3}
	build := func(pool ...model.Model) map[string]bool {
		a := New(Config{Sample: sampling.GreedyConfig()}, pool...)
		a.Prefill(prompt)
		return a.Speculate(prompt[len(prompt)-1], Shape{Budget: cfg, SSMs: 1}).SequenceSet()
	}
	x, y := build(ssm), build(ssm, other)
	if len(x) != len(y) {
		t.Fatalf("one SSM alone and one SSM of two disagree: %d vs %d sequences", len(x), len(y))
	}
	for k := range x {
		if !y[k] {
			t.Fatalf("sequence %q only in the lone SSM's tree", k)
		}
	}
}
