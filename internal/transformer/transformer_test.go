package transformer

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

func testConfig(seed uint64) Config {
	return Config{
		Name:   "test-llm",
		Vocab:  48,
		Hidden: 32,
		Heads:  4,
		FFN:    64,
		Layers: 2,
		Seed:   seed,
	}
}

func maxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestDeterministicWeights(t *testing.T) {
	a := New(testConfig(1))
	b := New(testConfig(1))
	sa := a.NewSession()
	sb := b.NewSession()
	da := sa.Prefill([]int{1, 2, 3})
	db := sb.Prefill([]int{1, 2, 3})
	if maxAbsDiff(da, db) != 0 {
		t.Fatal("same seed must produce identical models")
	}
	c := New(testConfig(2))
	dc := c.NewSession().Prefill([]int{1, 2, 3})
	if maxAbsDiff(da, dc) < 1e-6 {
		t.Fatal("different seeds must produce different models")
	}
}

func TestDistributionsAreProbabilities(t *testing.T) {
	m := New(testConfig(3))
	s := m.NewSession()
	d := s.Prefill([]int{5, 9, 11})
	var sum float64
	for _, p := range d {
		if p < 0 {
			t.Fatal("negative probability")
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestPrefillEqualsTokenByTokenDecode(t *testing.T) {
	m := New(testConfig(4))
	prompt := []int{3, 17, 42, 8, 29}

	s1 := m.NewSession()
	d1 := s1.Prefill(prompt)

	s2 := m.NewSession()
	var d2 []float32
	d2 = s2.Prefill(prompt[:1])
	for _, tok := range prompt[1:] {
		d2 = s2.Decode(tok)
	}
	if diff := maxAbsDiff(d1, d2); diff > 1e-5 {
		t.Fatalf("prefill vs incremental diff %v", diff)
	}
	if s1.Len() != len(prompt) || s2.Len() != len(prompt) {
		t.Fatal("session length mismatch")
	}
}

// TestTreeDecodeEquivalence is the core correctness property of §4
// (Definition 4.1): tree-based parallel decoding with the topology-aware
// causal mask must produce, at every tree node u, exactly the distribution
// that ordinary incremental decoding produces after the sequence S_u.
func TestTreeDecodeEquivalence(t *testing.T) {
	m := New(testConfig(5))
	prompt := []int{1, 2, 3, 4}

	// Figure 4's tree rooted at the last committed token.
	tr := tree.New(4)
	n3 := tr.AddChild(tr.Root(), 13, 1, 0)
	n4 := tr.AddChild(n3, 24, 1, 0)
	tr.AddChild(n4, 35, 1, 0)
	n6 := tr.AddChild(n4, 16, 1, 0)
	tr.AddChild(n6, 27, 1, 0)
	n8 := tr.AddChild(n3, 38, 1, 0)
	tr.AddChild(n8, 9, 1, 0)

	s := m.NewSession()
	s.Prefill(prompt)
	dists := s.DecodeTree(tr)

	for id := 0; id < tr.Len(); id++ {
		// Reference: decode S_id sequence-at-a-time from scratch.
		ref := m.NewSession()
		seq := append(append([]int{}, prompt...), tr.Sequence(id)[1:]...)
		want := ref.Prefill(seq)
		if diff := maxAbsDiff(dists[id], want); diff > 1e-4 {
			t.Fatalf("node %d (seq %v): tree vs sequence diff %v",
				id, seq, diff)
		}
	}
}

func TestTreeDecodeEquivalenceProperty(t *testing.T) {
	m := New(testConfig(6))
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		promptLen := 1 + rng.Intn(6)
		prompt := make([]int, promptLen)
		for i := range prompt {
			prompt[i] = rng.Intn(m.VocabSize())
		}
		tr := tree.New(prompt[len(prompt)-1])
		for i := 0; i < 6; i++ {
			parent := rng.Intn(tr.Len())
			tok := rng.Intn(m.VocabSize())
			if tr.ChildWithToken(parent, tok) != -1 {
				continue
			}
			tr.AddChild(parent, tok, 1, 0)
		}
		s := m.NewSession()
		s.Prefill(prompt)
		dists := s.DecodeTree(tr)
		// Check two random nodes against sequence decoding.
		for c := 0; c < 2; c++ {
			id := rng.Intn(tr.Len())
			ref := m.NewSession()
			seq := append(append([]int{}, prompt...), tr.Sequence(id)[1:]...)
			want := ref.Prefill(seq)
			if maxAbsDiff(dists[id], want) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAcceptReusesTreeKV checks KV-cache consistency: committing a verified
// path via Accept (which reuses rows computed by DecodeTree) must leave the
// session in a state indistinguishable from having decoded those tokens
// incrementally.
func TestAcceptReusesTreeKV(t *testing.T) {
	m := New(testConfig(7))
	prompt := []int{10, 20, 30}

	tr := tree.New(30)
	a := tr.AddChild(tr.Root(), 5, 1, 0)
	b := tr.AddChild(a, 6, 1, 0)
	tr.AddChild(b, 7, 1, 0)
	tr.AddChild(a, 8, 1, 0)

	s := m.NewSession()
	s.Prefill(prompt)
	s.DecodeTree(tr)
	// Accept path 5, 6 (within tree) plus bonus token 40 (off tree).
	got := s.Accept([]int{5, 6, 40})

	ref := m.NewSession()
	ref.Prefill(prompt)
	ref.Decode(5)
	ref.Decode(6)
	want := ref.Decode(40)

	if diff := maxAbsDiff(got, want); diff > 1e-4 {
		t.Fatalf("Accept state diverged: diff %v", diff)
	}
	if s.Len() != ref.Len() {
		t.Fatalf("len %d vs %d", s.Len(), ref.Len())
	}
	// Continue decoding after the accept: states must stay aligned.
	g2 := s.Decode(11)
	w2 := ref.Decode(11)
	if diff := maxAbsDiff(g2, w2); diff > 1e-4 {
		t.Fatalf("post-accept decode diverged: diff %v", diff)
	}
}

func TestAcceptEntirelyOffTree(t *testing.T) {
	m := New(testConfig(8))
	s := m.NewSession()
	s.Prefill([]int{1, 2})
	tr := tree.New(2)
	tr.AddChild(tr.Root(), 3, 1, 0)
	s.DecodeTree(tr)
	got := s.Accept([]int{9}) // LLM disagreed with the speculation

	ref := m.NewSession()
	ref.Prefill([]int{1, 2})
	want := ref.Decode(9)
	if diff := maxAbsDiff(got, want); diff > 1e-4 {
		t.Fatalf("off-tree accept diff %v", diff)
	}
}

func TestDecodeTreeRootDistribution(t *testing.T) {
	m := New(testConfig(9))
	s := m.NewSession()
	last := s.Prefill([]int{7, 8, 9})
	tr := tree.New(9)
	tr.AddChild(tr.Root(), 1, 1, 0)
	dists := s.DecodeTree(tr)
	if diff := maxAbsDiff(dists[tr.Root()], last); diff != 0 {
		t.Fatalf("root distribution must equal last committed dist, diff %v", diff)
	}
}

func TestDecodeTreeDoesNotAdvanceState(t *testing.T) {
	m := New(testConfig(10))
	s := m.NewSession()
	s.Prefill([]int{4, 5})
	tr := tree.New(5)
	tr.AddChild(tr.Root(), 6, 1, 0)
	s.DecodeTree(tr)
	if s.Len() != 2 {
		t.Fatalf("DecodeTree advanced committed length to %d", s.Len())
	}
	// Decoding after an uncommitted tree decode must match a fresh path.
	got := s.Decode(6)
	ref := m.NewSession()
	ref.Prefill([]int{4, 5})
	want := ref.Decode(6)
	if diff := maxAbsDiff(got, want); diff > 1e-5 {
		t.Fatalf("decode after DecodeTree diverged: %v", diff)
	}
}

func TestSingleNodeTreeDecode(t *testing.T) {
	m := New(testConfig(11))
	s := m.NewSession()
	last := s.Prefill([]int{3})
	dists := s.DecodeTree(tree.New(3))
	if len(dists) != 1 || maxAbsDiff(dists[0], last) != 0 {
		t.Fatal("single-node tree decode must return the cached root dist")
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	m := New(testConfig(12))
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("decode before prefill", func() { m.NewSession().Decode(1) })
	mustPanic("empty prefill", func() { m.NewSession().Prefill(nil) })
	mustPanic("double prefill", func() {
		s := m.NewSession()
		s.Prefill([]int{1})
		s.Prefill([]int{2})
	})
	mustPanic("token out of vocab", func() {
		m.NewSession().Prefill([]int{m.VocabSize()})
	})
	mustPanic("bad config", func() { New(Config{Vocab: 10, Hidden: 30, Heads: 4, FFN: 8, Layers: 1}) })
}

func optConfig(seed uint64) Config {
	return Config{
		Name:   "test-opt",
		Arch:   ArchOPT,
		Vocab:  48,
		Hidden: 32,
		Heads:  4,
		FFN:    64,
		Layers: 2,
		MaxSeq: 64,
		Seed:   seed,
	}
}

// TestOPTTreeDecodeEquivalence repeats the core §4 equivalence property on
// the OPT architecture (LayerNorm, learned positions, ReLU MLP): tree-
// parallel decoding must match sequence-at-a-time decoding node for node.
func TestOPTTreeDecodeEquivalence(t *testing.T) {
	m := New(optConfig(21))
	prompt := []int{5, 6, 7}
	tr := tree.New(7)
	a := tr.AddChild(tr.Root(), 11, 1, 0)
	tr.AddChild(a, 12, 1, 0)
	b := tr.AddChild(tr.Root(), 13, 1, 0)
	tr.AddChild(b, 14, 1, 0)

	s := m.NewSession()
	s.Prefill(prompt)
	dists := s.DecodeTree(tr)
	for id := 0; id < tr.Len(); id++ {
		ref := m.NewSession()
		seq := append(append([]int{}, prompt...), tr.Sequence(id)[1:]...)
		want := ref.Prefill(seq)
		if diff := maxAbsDiff(dists[id], want); diff > 1e-4 {
			t.Fatalf("OPT node %d: tree vs sequence diff %v", id, diff)
		}
	}
}

func TestOPTPrefillEqualsDecode(t *testing.T) {
	m := New(optConfig(22))
	prompt := []int{1, 2, 3, 4}
	s1 := m.NewSession()
	d1 := s1.Prefill(prompt)
	s2 := m.NewSession()
	d2 := s2.Prefill(prompt[:1])
	for _, tok := range prompt[1:] {
		d2 = s2.Decode(tok)
	}
	if diff := maxAbsDiff(d1, d2); diff > 1e-5 {
		t.Fatalf("OPT prefill vs incremental diff %v", diff)
	}
}

func TestOPTAcceptReuse(t *testing.T) {
	m := New(optConfig(23))
	tr := tree.New(3)
	a := tr.AddChild(tr.Root(), 4, 1, 0)
	tr.AddChild(a, 5, 1, 0)
	s := m.NewSession()
	s.Prefill([]int{2, 3})
	s.DecodeTree(tr)
	got := s.Accept([]int{4, 5, 9})
	ref := m.NewSession()
	ref.Prefill([]int{2, 3})
	ref.Decode(4)
	ref.Decode(5)
	want := ref.Decode(9)
	if diff := maxAbsDiff(got, want); diff > 1e-4 {
		t.Fatalf("OPT accept reuse diff %v", diff)
	}
}

func TestOPTPositionsMatter(t *testing.T) {
	// Learned positions: the same token at different positions must
	// produce different distributions (unlike a bag of words).
	m := New(optConfig(24))
	s1 := m.NewSession()
	a := s1.Prefill([]int{9, 9})
	s2 := m.NewSession()
	b := s2.Prefill([]int{9})
	if maxAbsDiff(a, b) < 1e-6 {
		t.Fatal("position embeddings appear to be ignored")
	}
}

func TestOPTMaxSeqEnforced(t *testing.T) {
	cfg := optConfig(25)
	cfg.MaxSeq = 4
	m := New(cfg)
	s := m.NewSession()
	s.Prefill([]int{1, 2, 3, 4})
	defer func() {
		if recover() == nil {
			t.Fatal("exceeding MaxSeq must panic")
		}
	}()
	s.Decode(5)
}

func TestArchString(t *testing.T) {
	if ArchLLaMA.String() != "llama" || ArchOPT.String() != "opt" {
		t.Fatal("arch strings wrong")
	}
}

// TestAcceptAfterTreeGrowth is a regression test: the speculator scores a
// partial tree with DecodeTree, then keeps growing the SAME tree object
// before Accept is called. Nodes added after the scratch was built must be
// recomputed, never read out of stale scratch (this used to panic).
func TestAcceptAfterTreeGrowth(t *testing.T) {
	m := New(testConfig(30))
	s := m.NewSession()
	s.Prefill([]int{1, 2, 3})

	tr := tree.New(3)
	a := tr.AddChild(tr.Root(), 7, 1, 0)
	s.DecodeTree(tr)
	// Grow the tree after scoring (what the speculator's level loop does).
	b := tr.AddChild(a, 9, 1, 0)
	_ = b

	got := s.Accept([]int{7, 9, 11}) // 7 in scratch; 9 and 11 are not

	ref := m.NewSession()
	ref.Prefill([]int{1, 2, 3})
	ref.Decode(7)
	ref.Decode(9)
	want := ref.Decode(11)
	if diff := maxAbsDiff(got, want); diff > 1e-4 {
		t.Fatalf("accept after tree growth diverged: %v", diff)
	}
}

// TestCommittedPassesStageRowsInScratch checks that a committed pass
// (Decode here) allocates no storage for its own K/V rows: they are
// staged in the scratch arena and copied into arena pages, so a decode's
// heap allocation is the pages' growth, one K/V row set per token, plus
// two copies of the distribution and a few small headers — not a second
// row set per token as when each pass allocated its rows.
func TestCommittedPassesStageRowsInScratch(t *testing.T) {
	cfg := testConfig(3)
	cfg.Hidden, cfg.FFN, cfg.Layers = 128, 64, 4
	m := New(cfg)
	s := m.NewSession()
	prompt := make([]int, 64)
	for i := range prompt {
		prompt[i] = i % cfg.Vocab
	}
	s.Prefill(prompt)
	s.Decode(1) // warm the scratch arena
	const decodes = 128
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < decodes; i++ {
		s.Decode(i % cfg.Vocab)
	}
	runtime.ReadMemStats(&after)
	perDecode := float64(after.TotalAlloc-before.TotalAlloc) / decodes
	rowBytes := float64(2 * cfg.Layers * cfg.Hidden * 4)
	t.Logf("%.0f bytes per decode; one token's K/V rows are %.0f bytes", perDecode, rowBytes)
	if perDecode > 1.5*rowBytes {
		t.Fatalf("a decode allocates %.0f bytes, more than 1.5x its K/V rows (%.0f bytes): the pass allocates its rows again", perDecode, rowBytes)
	}
}
