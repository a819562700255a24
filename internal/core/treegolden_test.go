package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// treeRecorder wraps the LLM so that every speculated tree it scores is
// hashed, per session: tokens, parents, and every proposal's Prob, SSMID
// and Dist bits.
type treeRecorder struct {
	model.Model
	sessions *[]*recordedSession
}

func (m treeRecorder) NewSession() model.Session {
	s := &recordedSession{Session: m.Model.NewSession(), h: fnv.New64a()}
	*m.sessions = append(*m.sessions, s)
	return s
}

type recordedSession struct {
	model.Session
	h     hash.Hash64
	trees int
}

func (s *recordedSession) put(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	s.h.Write(buf[:])
}

func (s *recordedSession) DecodeTree(t *tree.Tree) [][]float32 {
	s.trees++
	s.put(uint64(t.Len()))
	for _, n := range t.Nodes {
		s.put(uint64(n.Token))
		s.put(uint64(int64(n.Parent)))
		s.put(uint64(len(n.Proposals)))
		for _, p := range n.Proposals {
			s.put(uint64(math.Float32bits(p.Prob)))
			s.put(uint64(p.SSMID))
			s.put(uint64(len(p.Dist)))
			for _, x := range p.Dist {
				s.put(uint64(math.Float32bits(x)))
			}
		}
	}
	return s.Session.DecodeTree(t)
}

func (s *recordedSession) Close() {
	if c, ok := s.Session.(model.Closer); ok {
		c.Close()
	}
}

// TestSpeculatedTreesGolden pins every tree the speculator drafts, bit for
// bit, over fixed prompts and the fixed speculate/accept rounds the engine
// runs on them: static TopK and SampleK expansion, the sequence baseline
// (whose SampleK draws come from one stream shared by every request), a
// 2-SSM static merge, best-first growth, and the policy with two SSMs and
// a measured zero-budget floor, whose trees go through merge, prune and
// the deferred catch-up.
func TestSpeculatedTreesGolden(t *testing.T) {
	llm := transformer.New(transformer.Config{
		Name: "tg-llm", Vocab: 192, Hidden: 32, Heads: 4, FFN: 64, Layers: 2, Seed: 1,
	})
	// The first drafter shares the LLM's weights, so its drafts are
	// mostly accepted and the rounds commit long paths. The second is
	// unaligned, and its flatter distributions make SampleK draws depend
	// on the speculator's seed.
	ssms := []model.Model{
		transformer.New(transformer.Config{
			Name: "tg-llm", Vocab: 192, Hidden: 32, Heads: 4, FFN: 64, Layers: 2, Seed: 1,
		}),
		transformer.New(transformer.Config{
			Name: "tg-ssm", Vocab: 192, Hidden: 16, Heads: 2, FFN: 32, Layers: 1, Seed: 2,
		}),
	}
	metered := &meteredSSM{Model: ssms[0]}
	reqs := []workload.Request{
		{ID: 0, Prompt: []model.Token{4, 8, 15, 16, 23, 42}, MaxNewTok: 32},
		{ID: 1, Prompt: []model.Token{7, 7, 3, 90, 151}, MaxNewTok: 32},
	}
	greedy, stoch := sampling.GreedyConfig(), sampling.StochasticConfig()
	budget := speculator.Shape{Budget: tree.Budget{MaxNodes: 10, MaxDepth: 6, FanoutCap: 3}}
	cases := []struct {
		name  string
		cfg   Config
		clock func() time.Time
		want  string
	}{
		{"static-topk/greedy", Config{
			Mode: TreeSpec, SSMs: ssms[:1], Sample: greedy, Seed: 3,
		}, nil, "a9edba25c28d294e"},
		{"static-samplek/stochastic", Config{
			Mode: TreeSpec, SSMs: ssms[1:], Shape: speculator.Shape{Expansion: tree.ExpansionConfig{2, 3, 1, 2}},
			Sample: stoch, Seed: 5,
		}, nil, "ba2a383c382ee474"},
		{"sequence/stochastic", Config{
			Mode: SequenceSpec, SSMs: ssms[1:], Shape: speculator.Shape{Expansion: tree.SequenceConfig(4)}, Sample: stoch, Seed: 11,
		}, nil, "d7d9a86b8636174b"},
		{"merge-2ssm/greedy", Config{
			Mode: TreeSpec, SSMs: ssms, Sample: greedy, Seed: 13,
		}, nil, "97ef507ad329f5f7"},
		{"adaptive/greedy", Config{
			Mode: TreeSpec, SSMs: ssms[:1], Shape: budget, Sample: greedy, Seed: 17,
		}, nil, "d59e2560f080e42a"},
		{"adaptive/stochastic", Config{
			Mode: TreeSpec, SSMs: ssms[:1], Shape: budget, Sample: stoch, Seed: 19,
		}, nil, "083c084bbae694a4"},
		{"policy-2ssm-deferred/stochastic", Config{
			Mode: TreeSpec, SSMs: []model.Model{metered, ssms[1]}, Policy: &policy.Config{},
			Sample: stoch, Seed: 23,
		}, costClock(metered), "8319cfd9a4e93c31"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sessions []*recordedSession
			cfg := c.cfg
			cfg.LLM = treeRecorder{Model: llm, sessions: &sessions}
			cfg.Workers = 1
			eng := mustEngine(t, cfg)
			var batch []*reqState
			for _, r := range reqs {
				batch = append(batch, eng.admit(r, eng.prefix))
			}
			defer func() {
				for _, st := range batch {
					eng.release(st)
				}
			}()
			batch = eng.prefill(batch)
			for {
				var live []*reqState
				for _, st := range batch {
					if !st.done {
						live = append(live, st)
					}
				}
				if len(live) == 0 {
					break
				}
				eng.stepBatch(live, 0, c.clock)
			}
			h := fnv.New64a()
			trees := 0
			for i, s := range sessions {
				trees += s.trees
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], s.h.Sum64())
				h.Write(buf[:])
				for _, tok := range batch[i].res.Output {
					binary.LittleEndian.PutUint64(buf[:], uint64(tok))
					h.Write(buf[:])
				}
			}
			if trees == 0 {
				t.Fatal("no speculated tree was scored")
			}
			if cfg.Policy != nil {
				if eng.shapes.Stats().ZeroSteps == 0 {
					t.Fatal("the floor never fired: no deferred backlog was caught up")
				}
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
				t.Errorf("%d trees hash to %s, want %s", trees, got, c.want)
			}
		})
	}
}
