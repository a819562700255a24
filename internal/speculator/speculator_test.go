package speculator

import (
	"math"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/ngram"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// trainedPair returns an aligned (llm, ssm) n-gram pair on a dataset.
func trainedPair(t *testing.T) (*ngram.Model, *ngram.Model, *workload.Markov) {
	t.Helper()
	mk := workload.NewMarkov(workload.DatasetByName("Alpaca"))
	rng := tensor.NewRNG(99)
	llm := ngram.New(ngram.Config{Name: "llm", Vocab: 192, Order: 3})
	ssm := ngram.New(ngram.Config{Name: "ssm", Vocab: 192, Order: 2, Smoothing: 0.05})
	llm.TrainCorpus(mk.Corpus(rng, 200, 256))
	ssm.TrainCorpus(mk.Corpus(rng, 20, 256))
	return llm, ssm, mk
}

func TestExpansionShapeTopK(t *testing.T) {
	_, ssm, mk := trainedPair(t)
	cfg := Config{
		Expansion: tree.ExpansionConfig{2, 2, 1},
		Sample:    sampling.GreedyConfig(),
	}
	s := New(cfg, ssm)
	rng := tensor.NewRNG(1)
	prompt := mk.Generate(rng, 10)
	s.Prefill(prompt)
	tr := s.Speculate(prompt[len(prompt)-1])

	// Figure 3: <2,2,1> gives 2+4+4 = 10 speculated nodes, 4 sequences.
	if tr.NumSpeculated() != 10 {
		t.Fatalf("speculated %d nodes, want 10:\n%s", tr.NumSpeculated(), tr)
	}
	if len(tr.Leaves()) != 4 {
		t.Fatalf("leaves = %d, want 4", len(tr.Leaves()))
	}
	if tr.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", tr.Depth())
	}
}

func TestExpansionRecordsProposals(t *testing.T) {
	_, ssm, mk := trainedPair(t)
	s := New(Config{
		Expansion: tree.WidthConfig(3),
		Sample:    sampling.StochasticConfig(),
		Seed:      7,
	}, ssm)
	rng := tensor.NewRNG(2)
	prompt := mk.Generate(rng, 10)
	s.Prefill(prompt)
	tr := s.Speculate(prompt[len(prompt)-1])
	for id := 1; id < tr.Len(); id++ {
		n := tr.Node(id)
		if len(n.Proposals) == 0 {
			t.Fatalf("node %d missing proposals", id)
		}
		for _, pr := range n.Proposals {
			if pr.Dist == nil {
				t.Fatalf("node %d proposal missing distribution", id)
			}
			if pr.Prob <= 0 {
				t.Fatalf("node %d proposal prob %v", id, pr.Prob)
			}
			if pr.Dist[n.Token] != pr.Prob {
				t.Fatalf("node %d prob %v inconsistent with dist %v",
					id, pr.Prob, pr.Dist[n.Token])
			}
		}
	}
}

func TestGreedyExpansionUsesFullDistribution(t *testing.T) {
	// Under greedy decoding, width-k expansion must still propose k
	// distinct tokens (top-k of the raw SSM distribution), not collapse
	// to one-hot.
	_, ssm, mk := trainedPair(t)
	s := New(Config{
		Expansion: tree.ExpansionConfig{3},
		Sample:    sampling.GreedyConfig(),
	}, ssm)
	rng := tensor.NewRNG(3)
	prompt := mk.Generate(rng, 10)
	s.Prefill(prompt)
	tr := s.Speculate(prompt[len(prompt)-1])
	if got := len(tr.Node(tr.Root()).Children); got != 3 {
		t.Fatalf("greedy width-3 expansion produced %d children", got)
	}
}

func TestMergeBasedSpeculation(t *testing.T) {
	llm, ssm, mk := trainedPair(t)
	_ = llm
	rng := tensor.NewRNG(4)
	// A second SSM trained on different data gives a diverse pool.
	ssm2 := ngram.New(ngram.Config{Name: "ssm2", Vocab: 192, Order: 2, Smoothing: 0.05})
	ssm2.TrainCorpus(mk.Corpus(rng, 20, 256))

	cfg := Config{Expansion: tree.SequenceConfig(4), Sample: sampling.GreedyConfig()}
	s := New(cfg, ssm, ssm2)
	if s.NumSSMs() != 2 {
		t.Fatal("pool size wrong")
	}
	prompt := mk.Generate(rng, 10)
	s.Prefill(prompt)
	tr := s.Speculate(prompt[len(prompt)-1])
	// Merged tree must hold between 4 (fully overlapping) and 8 (disjoint)
	// speculated nodes.
	if n := tr.NumSpeculated(); n < 4 || n > 8 {
		t.Fatalf("merged tree has %d speculated nodes", n)
	}
	if tr.Depth() != 4 {
		t.Fatalf("merged depth %d, want 4", tr.Depth())
	}
}

func TestAcceptKeepsSessionsAligned(t *testing.T) {
	_, ssm, mk := trainedPair(t)
	s := New(Config{Expansion: tree.SequenceConfig(3), Sample: sampling.GreedyConfig()}, ssm)
	rng := tensor.NewRNG(5)
	prompt := mk.Generate(rng, 10)
	s.Prefill(prompt)
	tr1 := s.Speculate(prompt[len(prompt)-1])
	leaf := tr1.Leaves()[0]
	path := tr1.Sequence(leaf)[1:] // speculated tokens
	s.Accept(path)

	// A fresh speculator prefilled with the extended sequence must
	// speculate the identical tree.
	s2 := New(Config{Expansion: tree.SequenceConfig(3), Sample: sampling.GreedyConfig()}, ssm)
	full := append(append([]model.Token{}, prompt...), path...)
	s2.Prefill(full)
	a := s.Speculate(path[len(path)-1])
	b := s2.Speculate(path[len(path)-1])
	sa, sb := a.SequenceSet(), b.SequenceSet()
	if len(sa) != len(sb) {
		t.Fatalf("diverged after Accept: %d vs %d sequences", len(sa), len(sb))
	}
	for k := range sa {
		if !sb[k] {
			t.Fatalf("sequence %q missing after Accept", k)
		}
	}
}

func TestSampleKExpansionDeterministicPerSeed(t *testing.T) {
	_, ssm, mk := trainedPair(t)
	mkSpec := func() *Speculator {
		return New(Config{
			Expansion: tree.WidthConfig(4),
			Sample:    sampling.StochasticConfig(),
			Seed:      42,
		}, ssm)
	}
	prompt := mk.Generate(tensor.NewRNG(6), 10)
	s1, s2 := mkSpec(), mkSpec()
	s1.Prefill(prompt)
	s2.Prefill(prompt)
	a := s1.Speculate(prompt[len(prompt)-1]).SequenceSet()
	b := s2.Speculate(prompt[len(prompt)-1]).SequenceSet()
	if len(a) != len(b) {
		t.Fatal("SampleK expansion not deterministic for equal seeds")
	}
	for k := range a {
		if !b[k] {
			t.Fatal("SampleK expansion not deterministic for equal seeds")
		}
	}
}

func TestNewSequenceBaseline(t *testing.T) {
	_, ssm, _ := trainedPair(t)
	s := NewSequence(5, sampling.GreedyConfig(), ssm)
	if got := len(s.cfg.Expansion); got != 5 {
		t.Fatalf("sequence baseline depth %d", got)
	}
	if s.cfg.Expansion.NumSequences() != 1 {
		t.Fatal("sequence baseline must be width 1")
	}
}

func TestConstructorValidation(t *testing.T) {
	_, ssm, _ := trainedPair(t)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("no ssms", func() {
		New(Config{Expansion: tree.SequenceConfig(2), Sample: sampling.GreedyConfig()})
	})
	mustPanic("bad expansion", func() {
		New(Config{Expansion: tree.ExpansionConfig{0}, Sample: sampling.GreedyConfig()}, ssm)
	})
	mustPanic("vocab mismatch", func() {
		other := ngram.New(ngram.Config{Name: "x", Vocab: 16, Order: 2})
		New(Config{Expansion: tree.SequenceConfig(2), Sample: sampling.GreedyConfig()}, ssm, other)
	})
	mustPanic("bad sequence depth", func() { NewSequence(0, sampling.GreedyConfig(), ssm) })
}

func TestBoostTuneCoverageGrows(t *testing.T) {
	llm, _, mk := trainedPair(t)
	rng := tensor.NewRNG(8)
	prompts := mk.Prompts(rng, 60, 12)
	pool := make([]Trainable, 3)
	for i := range pool {
		pool[i] = ngram.New(ngram.Config{
			Name: "boost-ssm", Vocab: 192, Order: 2, Smoothing: 0.05,
		})
	}
	covered := BoostTune(llm, pool, prompts, BoostConfig{Seed: 1})
	if len(covered) != 3 {
		t.Fatalf("coverage report length %d", len(covered))
	}
	for i := 1; i < len(covered); i++ {
		if covered[i] < covered[i-1] {
			t.Fatalf("coverage must be monotone: %v", covered)
		}
	}
	if covered[0] == 0 {
		t.Fatal("first boosted SSM covered nothing — tuning is broken")
	}
	if covered[len(covered)-1] > len(prompts) {
		t.Fatalf("coverage %v exceeds sample count", covered)
	}
}

func TestGenerateLengthAndDeterminism(t *testing.T) {
	llm, _, mk := trainedPair(t)
	prompt := mk.Generate(tensor.NewRNG(9), 8)
	g1 := Generate(llm, prompt, 12, sampling.GreedyConfig(), tensor.NewRNG(1))
	g2 := Generate(llm, prompt, 12, sampling.GreedyConfig(), tensor.NewRNG(2))
	if len(g1) != 12 {
		t.Fatalf("generated %d tokens", len(g1))
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatal("greedy generation must not depend on the RNG")
		}
	}
}

func TestAdaptiveSpeculatorBudget(t *testing.T) {
	_, ssm, mk := trainedPair(t)
	a := NewAdaptive(AdaptiveConfig{MaxNodes: 10, MaxDepth: 8},
		sampling.GreedyConfig(), ssm)
	rng := tensor.NewRNG(31)
	prompt := mk.Generate(rng, 10)
	a.Prefill(prompt)
	tr := a.Speculate(prompt[len(prompt)-1])
	if tr.NumSpeculated() == 0 || tr.NumSpeculated() > 10 {
		t.Fatalf("adaptive tree has %d speculated nodes, budget 10", tr.NumSpeculated())
	}
	if tr.Depth() > 8 {
		t.Fatalf("adaptive tree depth %d exceeds max", tr.Depth())
	}
	// Every node carries a proposal with a distribution (needed by MSS).
	for id := 1; id < tr.Len(); id++ {
		if len(tr.Node(id).Proposals) == 0 || tr.Node(id).Proposals[0].Dist == nil {
			t.Fatalf("adaptive node %d missing proposal", id)
		}
	}
}

func TestAdaptiveRespectsMinPathProb(t *testing.T) {
	_, ssm, mk := trainedPair(t)
	a := NewAdaptive(AdaptiveConfig{MaxNodes: 64, MaxDepth: 8, MinPathProb: 0.5},
		sampling.GreedyConfig(), ssm)
	rng := tensor.NewRNG(33)
	prompt := mk.Generate(rng, 10)
	a.Prefill(prompt)
	tr := a.Speculate(prompt[len(prompt)-1])
	// With a harsh threshold the tree must stay small: only confident
	// chains qualify.
	if tr.NumSpeculated() > 16 {
		t.Fatalf("threshold ignored: %d nodes", tr.NumSpeculated())
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	_, ssm, mk := trainedPair(t)
	prompt := mk.Generate(tensor.NewRNG(35), 10)
	build := func() map[string]bool {
		a := NewAdaptive(AdaptiveConfig{MaxNodes: 12}, sampling.GreedyConfig(), ssm)
		a.Prefill(prompt)
		return a.Speculate(prompt[len(prompt)-1]).SequenceSet()
	}
	x, y := build(), ([]map[string]bool{build()})[0]
	if len(x) != len(y) {
		t.Fatal("adaptive speculation not deterministic")
	}
	for k := range x {
		if !y[k] {
			t.Fatal("adaptive speculation not deterministic")
		}
	}
}

func TestGenerateBeamFindsHighProbability(t *testing.T) {
	llm, _, mk := trainedPair(t)
	prompt := mk.Generate(tensor.NewRNG(41), 10)
	greedyOut := Generate(llm, prompt, 6, sampling.GreedyConfig(), tensor.NewRNG(1))
	beamOut, logp := GenerateBeam(llm, prompt, 6, 4)
	if len(beamOut) != 6 {
		t.Fatalf("beam output length %d", len(beamOut))
	}
	if logp > 0 {
		t.Fatalf("log probability %v must be <= 0", logp)
	}
	// Beam width 4 must find a sequence at least as probable as greedy's.
	seqLogp := func(seq []model.Token) float64 {
		sess := llm.NewSession()
		d := sess.Prefill(prompt)
		var lp float64
		for _, tok := range seq {
			lp += mathLog(d[tok])
			d = sess.Decode(tok)
		}
		return lp
	}
	if seqLogp(beamOut) < seqLogp(greedyOut)-1e-9 {
		t.Fatalf("beam (%.4f) worse than greedy (%.4f)",
			seqLogp(beamOut), seqLogp(greedyOut))
	}
}

func TestGenerateBeamWidthOneIsGreedy(t *testing.T) {
	llm, _, mk := trainedPair(t)
	prompt := mk.Generate(tensor.NewRNG(43), 10)
	g := Generate(llm, prompt, 5, sampling.GreedyConfig(), tensor.NewRNG(1))
	b, _ := GenerateBeam(llm, prompt, 5, 1)
	for i := range g {
		if g[i] != b[i] {
			t.Fatal("beam width 1 must equal greedy decoding")
		}
	}
}

func mathLog(p float32) float64 {
	if p <= 0 {
		return -1e9
	}
	return math.Log(float64(p))
}
