package transformer

import (
	"fmt"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// Incremental drafting: DecodeTree on the tree it scored last, grown by
// appended nodes, forwards only the new nodes. These tests hold it to the
// full-rescoring oracle bit for bit, pin every condition that must fall
// back to a full pass, and count the rows it saves on the speculators'
// real growth schedules.

// cloneTree returns a structurally identical copy of t — a different
// *tree.Tree, which a session always scores in full.
func cloneTree(t *tree.Tree) *tree.Tree {
	c := &tree.Tree{Nodes: make([]tree.Node, t.Len())}
	for i, n := range t.Nodes {
		n.Children = append([]tree.NodeID(nil), n.Children...)
		c.Nodes[i] = n
	}
	return c
}

// TestIncrementalDecodeTreeBitExact grows random trees a few nodes at a
// time, scoring after every growth step, and requires each returned
// distribution — and the distribution after accepting a path of the
// final tree plus a bonus token — to equal the Reference() oracle's bit
// for bit. Both architectures, AttnWorkers 1 and 4. Every node must have
// been forwarded exactly once.
func TestIncrementalDecodeTreeBitExact(t *testing.T) {
	for _, base := range goldenConfigs() {
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.AttnWorkers = workers
			t.Run(fmt.Sprintf("%s/w%d/float", cfg.Arch, workers), func(t *testing.T) {
				m := New(cfg)
				incrementalVsOracle(t, cfg.Vocab, m, m.Reference())
			})
		}
	}
}

func incrementalVsOracle(t *testing.T, vocab int, incM, oracleM model.Model) {
	t.Helper()
	rng := tensor.NewRNG(9001)
	inc, oracle := incM.NewSession(), oracleM.NewSession()
	prompt := make([]model.Token, 7)
	for i := range prompt {
		prompt[i] = rng.Intn(vocab)
	}
	requireExact(t, "prefill", inc.Prefill(prompt), oracle.Prefill(prompt))
	last := prompt[len(prompt)-1]
	for round := 0; round < 4; round++ {
		rows := inc.(*Session).treeRows
		tr := tree.New(last)
		for step := 0; tr.Len() < 24; step++ {
			// Grow by 1-4 nodes (AddChild merges a repeated sibling token,
			// so count real growth: an unchanged tree is fully rescored).
			for want := tr.Len() + 1 + rng.Intn(4); tr.Len() < want; {
				tr.AddChild(rng.Intn(tr.Len()), rng.Intn(vocab), 1, 0)
			}
			got, want := inc.DecodeTree(tr), oracle.DecodeTree(tr)
			for id := 0; id < tr.Len(); id++ {
				requireExact(t, fmt.Sprintf("round %d step %d node %d", round, step, id), got[id], want[id])
			}
		}
		if fwd := inc.(*Session).treeRows - rows; fwd != tr.NumSpeculated() {
			t.Fatalf("round %d: forwarded %d rows for a %d-node tree, want each node once", round, fwd, tr.NumSpeculated())
		}
		// Accept a random root path (rows served from retention, spanning
		// several incremental passes) plus an off-tree bonus token.
		var accepted []model.Token
		u := tr.Root()
		for len(tr.Node(u).Children) > 0 && rng.Intn(4) > 0 {
			u = tr.Node(u).Children[rng.Intn(len(tr.Node(u).Children))]
			accepted = append(accepted, tr.Node(u).Token)
		}
		accepted = append(accepted, rng.Intn(vocab))
		requireExact(t, fmt.Sprintf("round %d accept", round), inc.Accept(accepted), oracle.Accept(accepted))
		last = accepted[len(accepted)-1]
	}
}

// TestIncrementalGuards pins every case that must score the whole tree,
// each against a fresh session's full pass: a node edited in place, a
// different tree with the same prefix, a commit in between, the same
// tree with no new nodes, and any Reference() session. The last two
// keep the tree-verification benchmarks, which re-score one fixed tree,
// timing real full passes.
func TestIncrementalGuards(t *testing.T) {
	m := New(testConfig(41))
	prompt := []model.Token{5, 6, 7}
	base := func() *tree.Tree {
		tr := tree.New(7)
		a := tr.AddChild(0, 10, 1, 0)
		tr.AddChild(a, 11, 1, 0)
		tr.AddChild(0, 12, 1, 0)
		return tr
	}
	cases := []struct {
		name string
		ref  bool
		// between runs after the first DecodeTree(tr) and returns the
		// tree to score next.
		between func(s model.Session, tr *tree.Tree) *tree.Tree
	}{
		{"edited in place", false, func(_ model.Session, tr *tree.Tree) *tree.Tree {
			tr.Nodes[2].Token = 20
			tr.AddChild(2, 21, 1, 0)
			return tr
		}},
		{"reparented in place", false, func(_ model.Session, tr *tree.Tree) *tree.Tree {
			// Move node 2 (token 11) from under node 1 to under the root.
			tr.Nodes[2].Parent, tr.Nodes[2].Depth = 0, 1
			tr.Nodes[1].Children = nil
			tr.Nodes[0].Children = append(tr.Nodes[0].Children, 2)
			tr.AddChild(2, 21, 1, 0)
			return tr
		}},
		{"different tree, same prefix", false, func(_ model.Session, tr *tree.Tree) *tree.Tree {
			c := cloneTree(tr)
			c.AddChild(2, 21, 1, 0)
			return c
		}},
		{"after Accept", false, func(s model.Session, _ *tree.Tree) *tree.Tree {
			s.Accept([]model.Token{10})
			tr := tree.New(10)
			tr.AddChild(0, 11, 1, 0)
			tr.AddChild(1, 22, 1, 0)
			return tr
		}},
		{"after Decode", false, func(s model.Session, tr *tree.Tree) *tree.Tree {
			s.Decode(7)
			tr.AddChild(2, 21, 1, 0)
			return tr
		}},
		{"no new nodes", false, func(_ model.Session, tr *tree.Tree) *tree.Tree { return tr }},
		{"reference session", true, func(_ model.Session, tr *tree.Tree) *tree.Tree {
			tr.AddChild(2, 21, 1, 0)
			return tr
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mm := model.Model(m)
			if c.ref {
				mm = m.Reference()
			}
			s := mm.NewSession()
			s.Prefill(prompt)
			tr := base()
			s.DecodeTree(tr)
			next := c.between(s, tr)
			before := s.(*Session).treeRows
			got := s.DecodeTree(next)
			if fwd := s.(*Session).treeRows - before; fwd != next.NumSpeculated() {
				t.Fatalf("forwarded %d rows, want a full pass of %d", fwd, next.NumSpeculated())
			}
			// The oracle replays the same commits on a fresh session and
			// scores the final tree once.
			o := m.Reference().NewSession()
			o.Prefill(prompt)
			switch c.name {
			case "after Accept":
				o.Accept([]model.Token{10})
			case "after Decode":
				o.Decode(7)
			}
			want := o.DecodeTree(next)
			for id := range want {
				requireExact(t, fmt.Sprintf("node %d", id), got[id], want[id])
			}
		})
	}
}

// TestIncrementalAcceptChecksRetainedNodes: Accept serves rows from
// retention only for nodes that still carry the token and parent they
// were scored with; a path through a node edited in place after scoring
// is recomputed.
func TestIncrementalAcceptChecksRetainedNodes(t *testing.T) {
	m := New(testConfig(42))
	s := m.NewSession()
	s.Prefill([]model.Token{1, 2, 3})
	tr := tree.New(3)
	a := tr.AddChild(0, 7, 1, 0)
	tr.AddChild(a, 9, 1, 0)
	s.DecodeTree(tr)
	tr.Nodes[2].Token = 8 // edited after scoring: its retained rows are for 9
	got := s.Accept([]model.Token{7, 8})

	ref := m.Reference().NewSession()
	ref.Prefill([]model.Token{1, 2, 3})
	ref.Decode(7)
	requireExact(t, "accept through edited node", got, ref.Decode(8))
}

// TestTreeStateAllocatedLazily: sessions that never score a tree — the
// LLM of incremental decoding, the distillation teachers — carry no
// incremental-drafting state, and Close drops it.
func TestTreeStateAllocatedLazily(t *testing.T) {
	m := New(testConfig(43))
	s := m.NewSession().(*Session)
	s.Prefill([]model.Token{1, 2})
	s.Decode(3)
	s.Accept([]model.Token{4, 5})
	if s.tree != nil {
		t.Fatal("tree state allocated before the first DecodeTree")
	}
	tr := tree.New(5)
	tr.AddChild(0, 6, 1, 0)
	s.DecodeTree(tr)
	if s.tree == nil || s.tree.scored() != 2 {
		t.Fatal("DecodeTree did not retain the scored tree")
	}
	s.Close()
	if s.tree != nil {
		t.Fatal("Close kept the tree state")
	}
}

// countingModel records, for every session it creates, the tree sizes
// passed to DecodeTree — what a full-rescoring drafter would forward.
type countingModel struct {
	*Model
	sessions []*countingSession
}

type countingSession struct {
	*Session
	passed int // speculated nodes handed to DecodeTree, summed over calls
	sizes  []int
}

func (c *countingModel) NewSession() model.Session {
	s := &countingSession{Session: c.Model.NewSession().(*Session)}
	c.sessions = append(c.sessions, s)
	return s
}

func (s *countingSession) DecodeTree(t *tree.Tree) [][]float32 {
	s.passed += t.NumSpeculated()
	s.sizes = append(s.sizes, t.NumSpeculated())
	return s.Session.DecodeTree(t)
}

// TestIncrementalDraftForwardCounts counts SSM rows forwarded per
// verification on the speculators' real growth schedules. The static
// ⟨1,1,3,1,1,1,1,1⟩ grower passes trees of 0,1,2,5,8,11,14,17 speculated
// nodes (58 rows under full rescoring) and must now forward 17 — every
// scored node once. The adaptive grower at {MaxNodes 16} admits waves of
// 8/4/2/1/1, passing 0,8,12,14,15 (49 rows), and must now forward 15.
func TestIncrementalDraftForwardCounts(t *testing.T) {
	cfg := testConfig(44)
	cfg.Vocab = 64
	prompt := []model.Token{3, 1, 4, 1, 5, 9, 2, 6}
	cases := []struct {
		name          string
		speculate     func(ssm model.Model) *tree.Tree
		sizes         []int
		passed, rows  int
		wantSpeculate int
	}{
		{
			name: "static paper default",
			speculate: func(ssm model.Model) *tree.Tree {
				sp := speculator.New(speculator.Config{Sample: sampling.GreedyConfig()}, ssm)
				sp.Prefill(prompt)
				return sp.Speculate(prompt[len(prompt)-1], speculator.Shape{Expansion: tree.PaperDefault()})
			},
			sizes: []int{0, 1, 2, 5, 8, 11, 14, 17}, passed: 58, rows: 17, wantSpeculate: 20,
		},
		{
			name: "adaptive MaxNodes 16",
			speculate: func(ssm model.Model) *tree.Tree {
				sp := speculator.New(speculator.Config{Sample: sampling.GreedyConfig()}, ssm)
				sp.Prefill(prompt)
				return sp.Speculate(prompt[len(prompt)-1], speculator.Shape{Budget: tree.Budget{MaxNodes: 16, FanoutCap: 16}})
			},
			sizes: []int{0, 8, 12, 14, 15}, passed: 49, rows: 15, wantSpeculate: 16,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, ref := range []bool{false, true} {
				cm := &countingModel{Model: New(cfg)}
				var ssm model.Model = cm
				if ref {
					ssm = refCounting{cm}
				}
				tr := c.speculate(ssm)
				if tr.NumSpeculated() != c.wantSpeculate {
					t.Fatalf("tree has %d speculated nodes, want %d", tr.NumSpeculated(), c.wantSpeculate)
				}
				s := cm.sessions[0]
				if fmt.Sprint(s.sizes) != fmt.Sprint(c.sizes) || s.passed != c.passed {
					t.Fatalf("DecodeTree sizes %v (sum %d), want %v (sum %d)", s.sizes, s.passed, c.sizes, c.passed)
				}
				want := c.rows
				if ref {
					want = c.passed // the oracle always rescores the whole tree
				}
				if s.treeRows != want {
					t.Fatalf("reference=%v: forwarded %d rows, want %d", ref, s.treeRows, want)
				}
			}
		})
	}
}

// refCounting is countingModel over the Reference() view.
type refCounting struct{ *countingModel }

func (r refCounting) NewSession() model.Session {
	inner := r.Model.Reference().NewSession().(*Session)
	s := &countingSession{Session: inner}
	r.sessions = append(r.sessions, s)
	return s
}
