package speculator

import (
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/tree"
)

// scratchModel exercises the model.Session license to return DecodeTree
// distributions that alias internal scratch until the next commit: every
// call rewrites the same per-node buffers with wave-dependent values.
// Best-first growth runs several DecodeTree waves before any commit and
// the admitted nodes' stored dists outlive Speculate (MSS verification
// reads them after the LLM pass), so holding the raw slices corrupts
// them — the regression this test pins.
type scratchModel struct{ vocab int }

func (m *scratchModel) Name() string   { return "scratch" }
func (m *scratchModel) VocabSize() int { return m.vocab }
func (m *scratchModel) NewSession() model.Session {
	return &scratchSession{vocab: m.vocab}
}

type scratchSession struct {
	vocab int
	n     int
	wave  int
	bufs  [][]float32
}

func (s *scratchSession) Prefill(p []model.Token) []float32 {
	s.n = len(p)
	return make([]float32, s.vocab)
}

func (s *scratchSession) Decode(model.Token) []float32 {
	s.n++
	return make([]float32, s.vocab)
}

// DecodeTree reuses one scratch buffer per node slot, refilled with
// values that shift every wave — exactly the mutation-between-waves an
// aliasing caller would observe.
func (s *scratchSession) DecodeTree(tr *tree.Tree) [][]float32 {
	s.wave++
	out := make([][]float32, tr.Len())
	for id := 0; id < tr.Len(); id++ {
		for id >= len(s.bufs) {
			s.bufs = append(s.bufs, make([]float32, s.vocab))
		}
		buf := s.bufs[id]
		for i := range buf {
			buf[i] = 0
		}
		top := (id + s.wave) % s.vocab
		buf[top] = 0.5 + 0.02*float32(s.wave)
		buf[(top+1)%s.vocab] = 0.3
		buf[(top+2)%s.vocab] = 0.2 - 0.02*float32(s.wave)
		out[id] = buf
	}
	return out
}

func (s *scratchSession) Accept(toks []model.Token) []float32 {
	s.n += len(toks)
	return make([]float32, s.vocab)
}

func (s *scratchSession) Len() int { return s.n }

// TestAdaptiveSpeculateDistsSurviveLaterWaves: the Prob recorded on a
// node is copied by value at admission, while Dist used to alias the
// SSM's scratch — a later wave (or a consumer mutating the returned
// dists) silently rewrote the stored distribution, desynchronizing
// Dist[Token] from Prob and corrupting MSS verification's proposal
// distributions. Every admitted node must keep the distribution it was
// admitted under.
func TestAdaptiveSpeculateDistsSurviveLaterWaves(t *testing.T) {
	budget := Shape{Budget: tree.Budget{MaxNodes: 6, MaxDepth: 4, FanoutCap: 2}}
	a := New(Config{Sample: sampling.GreedyConfig()}, &scratchModel{vocab: 8})
	a.Prefill([]model.Token{1, 2, 3})
	tr := a.Speculate(3, budget)

	if tr.NumSpeculated() < 4 {
		t.Fatalf("speculated only %d nodes; need multiple waves to exercise scratch reuse", tr.NumSpeculated())
	}
	for id := 1; id < tr.Len(); id++ {
		n := tr.Node(id)
		for pi, p := range n.Proposals {
			if len(p.Dist) == 0 {
				t.Fatalf("node %d proposal %d has no stored distribution", id, pi)
			}
			if p.Dist[n.Token] != p.Prob {
				t.Fatalf("node %d: stored dist[%d] = %v but admission-time prob = %v — dist was rewritten by a later wave",
					id, n.Token, p.Dist[n.Token], p.Prob)
			}
		}
	}

	// A consumer mutating the returned dists between speculation rounds
	// (satellite's second hazard) must not be able to corrupt the SSM's
	// internal state either: a fresh Speculate from the same root yields
	// an identically-shaped tree.
	for id := 1; id < tr.Len(); id++ {
		for _, p := range tr.Node(id).Proposals {
			for i := range p.Dist {
				p.Dist[i] = -1
			}
		}
	}
	tr2 := New(Config{Sample: sampling.GreedyConfig()}, &scratchModel{vocab: 8})
	tr2.Prefill([]model.Token{1, 2, 3})
	reref := tr2.Speculate(3, budget)
	if reref.NumSpeculated() != tr.NumSpeculated() {
		t.Fatalf("mutating returned dists changed speculation: %d vs %d nodes",
			reref.NumSpeculated(), tr.NumSpeculated())
	}
}
