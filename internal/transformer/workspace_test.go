package transformer

import (
	"testing"

	"specinfer/internal/freelist"
	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/tree"
)

// chainTree builds the ⟨1,1,3,1,1,1,1,1⟩ tree: a two-token stem, three
// branches, each extended five more levels — 21 nodes with the root.
func chainTree(root model.Token, vocab int) *tree.Tree {
	tr := tree.New(root)
	u := tr.AddChild(tr.Root(), (root+1)%vocab, 1, 0)
	u = tr.AddChild(u, (root+2)%vocab, 1, 0)
	for b := 0; b < 3; b++ {
		v := tr.AddChild(u, (root+3+b)%vocab, 1, 0)
		for d := 0; d < 5; d++ {
			v = tr.AddChild(v, (root+7*b+d+5)%vocab, 1, 0)
		}
	}
	return tr
}

// reusedSession runs use on a new session of m, closes it, and returns
// the session opened next, which must have taken over the workspace.
func reusedSession(t *testing.T, m *Model, use func(*Session)) *Session {
	t.Helper()
	a := m.NewSession().(*Session)
	use(a)
	ws := a.ws
	a.Close()
	b := m.NewSession().(*Session)
	if b.ws != ws {
		t.Fatal("a session opened after Close did not reuse the pooled workspace")
	}
	return b
}

// TestClosedSessionPanics: a closed session has handed its workspace and
// pages back to the model's pools, where the next session picks them up,
// so every later use must fail loudly instead of quietly sharing a live
// session's buffers. A second Close is a no-op, so it cannot hand the
// workspace out twice.
func TestClosedSessionPanics(t *testing.T) {
	m := New(testConfig(51))
	tr := tree.New(3)
	tr.AddChild(tr.Root(), 4, 1, 0)
	ops := map[string]func(s *Session){
		"Prefill":    func(s *Session) { s.Prefill([]model.Token{1, 2}) },
		"Decode":     func(s *Session) { s.Decode(1) },
		"DecodeTree": func(s *Session) { s.DecodeTree(tr) },
		"Accept":     func(s *Session) { s.Accept([]model.Token{4}) },
		"PrefillShared": func(s *Session) {
			s.PrefillShared(&kvcache.PinnedPrefix{}, []model.Token{1, 2})
		},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			s := m.NewSession().(*Session)
			s.Prefill([]model.Token{1, 2, 3})
			s.Close()
			s.Close()
			live := m.NewSession().(*Session) // may take the closed session's workspace
			live.Prefill([]model.Token{5, 6})
			defer live.Close()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a closed session did not panic", name)
				}
			}()
			op(s)
		})
	}
}

// TestWorkspacePooledAcrossSessions: Close returns the workspace, and a
// session opened afterwards reuses it and decodes bit for bit like a
// session on a fresh model.
func TestWorkspacePooledAcrossSessions(t *testing.T) {
	m := New(testConfig(52))
	b := reusedSession(t, m, func(a *Session) {
		a.Prefill([]model.Token{1, 2, 3, 4, 5})
		a.DecodeTree(chainTree(5, m.cfg.Vocab))
		a.Accept([]model.Token{6, 7, 9})
	})
	fresh := New(testConfig(52)).NewSession()
	prompt := []model.Token{9, 8, 7}
	requireExact(t, "prefill", b.Prefill(prompt), fresh.Prefill(prompt))
	tr := chainTree(7, m.cfg.Vocab)
	got, want := b.DecodeTree(tr), fresh.DecodeTree(tr)
	for id := range want {
		requireExact(t, "tree node", got[id], want[id])
	}
	path := []model.Token{8, 9, 10, 11}
	requireExact(t, "accept", b.Accept(path), fresh.Accept(path))
}

// TestClosedWorkspaceHoldsNoStaleRows: a tree larger than any before it
// spills the tree arena into new chunks, and the reset at Close
// consolidates them into one. The workspace then waits in the pool, so
// no row header, view or attention operand in it may still point into
// the dropped chunks, or at the closed session's cache.
func TestClosedWorkspaceHoldsNoStaleRows(t *testing.T) {
	m := New(testConfig(55))
	s := m.NewSession().(*Session)
	s.Prefill([]model.Token{1, 2, 3, 4, 5})
	s.DecodeTree(chainTree(5, m.cfg.Vocab))
	s.Accept([]model.Token{6, 7})
	// Three 20-node chains under the root: 61 nodes, past the one chunk
	// the first round left.
	big := tree.New(7)
	for b := 0; b < 3; b++ {
		u := big.AddChild(big.Root(), model.Token(8+b), 1, 0)
		for d := 0; d < 19; d++ {
			u = big.AddChild(u, model.Token((11+3*d+b)%m.cfg.Vocab), 1, 0)
		}
	}
	s.DecodeTree(big)
	ws := s.ws
	if n := len(ws.tree.rows.chunks); n < 2 {
		t.Fatalf("the big tree left %d arena chunks, want a spill into at least 2", n)
	}
	old := map[*float32]bool{}
	for _, c := range ws.tree.rows.chunks {
		old[&c[0]] = true
	}
	s.Close()

	if n := len(ws.tree.rows.chunks); n != 1 || old[&ws.tree.rows.chunks[0][0]] {
		t.Fatalf("Close left %d arena chunks, want 1 new consolidated chunk", n)
	}
	requireCleared := func(what string, rows [][]float32) {
		t.Helper()
		for i, r := range rows[:cap(rows)] {
			if r != nil {
				t.Fatalf("%s header %d still set after Close", what, i)
			}
		}
	}
	for l := range ws.tree.k {
		requireCleared("tree K", ws.tree.k[l])
		requireCleared("tree V", ws.tree.v[l])
	}
	requireCleared("tree distribution", ws.tree.dists)
	requireCleared("pass K/V row", ws.kv.rows)
	for i, v := range ws.kv.views[:cap(ws.kv.views)] {
		if v.Data != nil {
			t.Fatalf("pass K/V view %d still set after Close", i)
		}
	}
	for i, l := range ws.kv.layers[:cap(ws.kv.layers)] {
		if l != nil {
			t.Fatalf("pass K/V layer %d still set after Close", i)
		}
	}
	if ws.at.cache != nil || ws.at.kRows != nil || ws.at.priorK != nil || ws.at.q != nil {
		t.Fatal("the attention stage still holds the closed session's operands")
	}
}

// TestWarmTreePassAllocatesNothing: on a warmed session a 21-node tree
// pass takes every buffer from the session's workspace and tree arena,
// and an Accept along the tree allocates only the distribution it
// returns.
func TestWarmTreePassAllocatesNothing(t *testing.T) {
	cfg := Config{Name: "perf-LLM", Vocab: 256, Hidden: 64, Heads: 4, FFN: 160, Layers: 4, Seed: 61, AttnWorkers: 1}
	m := New(cfg)
	prompt := make([]model.Token, 32)
	for i := range prompt {
		prompt[i] = (7 * i) % cfg.Vocab
	}
	// Warm the pooled workspace — scratch, RoPE table, tree arena — and
	// the free KV pages on an earlier request, as a serving model is warm.
	s := reusedSession(t, m, func(warm *Session) {
		warm.Prefill(prompt)
		for i := 0; i < 64; i++ {
			warm.DecodeTree(chainTree(model.Token(i), cfg.Vocab))
			warm.Accept([]model.Token{(i + 1) % cfg.Vocab, (i + 2) % cfg.Vocab, 0})
		}
	})
	defer s.Close()
	s.Prefill(prompt)
	tr := chainTree(prompt[len(prompt)-1], cfg.Vocab)
	if tr.Len() != 21 {
		t.Fatalf("tree has %d nodes, want 21", tr.Len())
	}
	s.DecodeTree(tr)
	if n := testing.AllocsPerRun(20, func() { s.DecodeTree(tr) }); n != 0 {
		t.Errorf("a warm 21-node DecodeTree allocates %v times, want 0", n)
	}
	root := prompt[len(prompt)-1]
	path := []model.Token{(root + 1) % cfg.Vocab, (root + 2) % cfg.Vocab, (root + 3) % cfg.Vocab}
	trees := make([]*tree.Tree, 9)
	for i := range trees {
		trees[i] = chainTree(root, cfg.Vocab)
	}
	// Each run scores a fresh tree (built up front) and commits three of
	// its tokens, staying inside the session's first page.
	i := 0
	if n := testing.AllocsPerRun(8, func() {
		s.DecodeTree(trees[i])
		i++
		s.Accept(path)
	}); n > 1 {
		t.Errorf("a warm DecodeTree + Accept allocates %v times, want at most 1 (the returned distribution)", n)
	}
}

// TestWorkspacePoolTrimsIdle: NewSession ticks the model's free list, so
// after a burst of sessions closes, a model serving one session at a
// time keeps about one workspace, not the burst's.
func TestWorkspacePoolTrimsIdle(t *testing.T) {
	m := New(testConfig(53))
	var burst []*Session
	for i := 0; i < 8; i++ {
		burst = append(burst, m.NewSession().(*Session))
	}
	for _, s := range burst {
		s.Close()
	}
	if n := m.workspaces.Len(); n != 8 {
		t.Fatalf("pool holds %d workspaces after the burst, want 8", n)
	}
	for i := 0; i < 2*freelist.Window; i++ {
		s := m.NewSession().(*Session)
		s.Prefill([]model.Token{1, 2})
		s.Close()
	}
	if n := m.workspaces.Len(); n > 1 {
		t.Fatalf("pool holds %d workspaces after serving one session at a time, want at most 1", n)
	}
}

// TestPoolsSharedAcrossGoroutines: replicas that share one Model open
// and close sessions on their own goroutines, so workspaces and KV pages
// pass between goroutines through the model's pools. Every request must
// still decode bit for bit like a serial one (run under -race).
func TestPoolsSharedAcrossGoroutines(t *testing.T) {
	m := New(testConfig(54))
	run := func(seed int) []float32 {
		s := m.NewSession().(*Session)
		defer s.Close()
		prompt := make([]model.Token, 70) // past one 64-row page
		for i := range prompt {
			prompt[i] = (seed*7 + i*3) % m.cfg.Vocab
		}
		s.Prefill(prompt)
		root := prompt[len(prompt)-1]
		tr := chainTree(root, m.cfg.Vocab)
		s.DecodeTree(tr)
		// Accept's distribution is the session's, and the deferred Close
		// hands it on: keep a copy.
		return cloneVec(s.Accept([]model.Token{(root + 1) % m.cfg.Vocab, (root + 2) % m.cfg.Vocab, 5}))
	}
	const replicas, requests = 2, 12
	want := make([][]float32, replicas*requests)
	for i := range want {
		want[i] = run(i)
	}
	got := make([][]float32, len(want))
	done := make(chan struct{})
	for r := 0; r < replicas; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			for i := r; i < len(got); i += replicas {
				got[i] = run(i)
			}
		}(r)
	}
	for r := 0; r < replicas; r++ {
		<-done
	}
	for i := range want {
		requireExact(t, "concurrent request", got[i], want[i])
	}
}
