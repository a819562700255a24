package transformer

import (
	"fmt"
	"runtime"
	"testing"

	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// Golden tests for the paged head-major KV arena and the attention
// stage's split. Three sessions of the same weights must agree
// float-for-float on every distribution under every attention-worker
// count:
//
//   - the default session (batched forward, paged arena, pooled attention),
//   - a split-prompt session: a default session whose prompt arrives as a
//     short Prefill followed by one Accept of the rest, so its first KV
//     rows are committed by the batched Accept tail instead of prefill,
//   - the Reference() view (scalar forward, per-position slice cache).
//
// Any drift means the paged layout, the commit path or the worker
// sharding changed the arithmetic, which would silently alter acceptance
// decisions downstream.

// attnWorkerCounts returns the attention splits the sweep forces through
// Model.attnSplit. A forced split ignores attnParallelFloor, so even tiny
// golden models exercise the split path at 4 workers.
func attnWorkerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// TestPagedForwardBitExactThreeWay drives the three sessions through an
// identical serving history — prefill, incremental decodes, tree decodes
// over random trees, accepts whose tail carries ≥3 off-tree tokens (the
// batched Accept tail) — for both architectures and every
// attention-worker count.
func TestPagedForwardBitExactThreeWay(t *testing.T) {
	for _, base := range goldenConfigs() {
		for _, workers := range attnWorkerCounts() {
			cfg := base
			t.Run(fmt.Sprintf("%s/attnworkers=%d", cfg.Arch, workers), func(t *testing.T) {
				m := New(cfg)
				m.attnSplit = workers
				paged := m.NewSession()
				split := m.NewSession()
				ref := m.Reference().NewSession()
				rng := tensor.NewRNG(777)

				check := func(ctx string, dp, ds, dr []float32) {
					t.Helper()
					requireExact(t, ctx+" paged-vs-ref", dp, dr)
					requireExact(t, ctx+" split-vs-ref", ds, dr)
				}

				prompt := make([]model.Token, 10)
				for i := range prompt {
					prompt[i] = rng.Intn(cfg.Vocab)
				}
				split.Prefill(prompt[:3])
				check("prefill", paged.Prefill(prompt), split.Accept(prompt[3:]), ref.Prefill(prompt))

				last := prompt[len(prompt)-1]
				for round := 0; round < 3; round++ {
					ctx := fmt.Sprintf("round %d", round)
					tok := rng.Intn(cfg.Vocab)
					check(ctx+" decode", paged.Decode(tok), split.Decode(tok), ref.Decode(tok))
					last = tok

					tr := randomTree(rng, last, cfg.Vocab)
					dp, ds, dr := paged.DecodeTree(tr), split.DecodeTree(tr), ref.DecodeTree(tr)
					for id := 0; id < tr.Len(); id++ {
						check(fmt.Sprintf("%s tree node %d", ctx, id), dp[id], ds[id], dr[id])
					}

					// Accept a random root path (KV reuse straight from tree
					// scratch into arena pages) plus THREE off-tree bonus
					// tokens, so the miss tail runs the single batched
					// forward rather than one call per token.
					var accepted []model.Token
					u := tr.Root()
					for len(tr.Node(u).Children) > 0 && rng.Intn(3) > 0 {
						u = tr.Node(u).Children[rng.Intn(len(tr.Node(u).Children))]
						accepted = append(accepted, tr.Node(u).Token)
					}
					for b := 0; b < 3; b++ {
						accepted = append(accepted, rng.Intn(cfg.Vocab))
					}
					check(ctx+" accept", paged.Accept(accepted), split.Accept(accepted), ref.Accept(accepted))
					last = accepted[len(accepted)-1]
				}
				if paged.Len() != ref.Len() || split.Len() != ref.Len() {
					t.Fatalf("session lengths diverged: paged %d split %d ref %d",
						paged.Len(), split.Len(), ref.Len())
				}
			})
		}
	}
}

// TestAttnSplitBitExactAtServingShapes runs perf-LLM's geometry through
// three attention stages that cross attnParallelFloor — the 128-row
// chunks of a cold 272-token prefill, a 16-token suffix prefilled over
// an adopted 256-token prefix, and a pass over 21 tree nodes at context
// 272 —
// and requires the split, both forced through Model.attnSplit and taken
// by the default path at GOMAXPROCS >= 2, to match the serial stage bit
// for bit.
func TestAttnSplitBitExactAtServingShapes(t *testing.T) {
	cfg := Config{Name: "perf-LLM", Vocab: 256, Hidden: 64, Heads: 4, FFN: 160, Layers: 4, Seed: 61}
	for _, st := range []struct {
		what       string
		rows, keys int // new rows; keys each attends, the new rows included
	}{
		{"prefill chunk", prefillChunk, prefillChunk},
		{"shared suffix", 16, 256 + 16},
		{"tree pass", 21, 272 + 21},
	} {
		if st.rows*cfg.Heads*st.keys*cfg.headDim() < attnParallelFloor {
			t.Fatalf("the %s stage no longer crosses attnParallelFloor", st.what)
		}
	}
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	serial := servingShapeDists(t, cfg, 1)
	for _, split := range []int{0, 2, 4} {
		got := servingShapeDists(t, cfg, split)
		for i := range serial {
			requireExact(t, fmt.Sprintf("split %d, distribution %d", split, i), got[i], serial[i])
		}
	}
}

// servingShapeDists returns every distribution of the serving-shape
// scenario above on a model whose attnSplit is split: the cold prefill's,
// the shared-prefix prefill's, then the tree pass's, node by node.
func servingShapeDists(t *testing.T, cfg Config, split int) [][]float32 {
	t.Helper()
	m := New(cfg)
	m.attnSplit = split
	donorPrompt, probePrompt := sharedPrompts(tensor.NewRNG(2718), cfg.Vocab, 256, 16)
	donor := m.NewSession().(*Session)
	defer donor.Close()
	dists := [][]float32{donor.Prefill(donorPrompt)}

	cache := kvcache.NewPrefixCache(1 << 24)
	cache.Insert(m.Name(), donorPrompt, donor.Arena())
	h := cache.Lookup(m.Name(), probePrompt, len(probePrompt)-1)
	if h == nil || h.Len() != 256 {
		t.Fatalf("lookup = %v, want a 256-token hit", h)
	}
	defer h.Release()
	warm := m.NewSession().(*Session)
	defer warm.Close()
	dists = append(dists, warm.PrefillShared(h, probePrompt))

	tr := tree.New(probePrompt[len(probePrompt)-1])
	for i := 1; i <= 21; i++ {
		tr.AddChild(tree.NodeID((i-1)/3), model.Token(i*11%cfg.Vocab), 0, 0)
	}
	// The tree's rows live in the session's workspace, which Close hands
	// back to the model: copy them out.
	for _, d := range warm.DecodeTree(tr) {
		dists = append(dists, append([]float32(nil), d...))
	}
	return dists
}

// TestSessionCloseAndCacheBytes covers the optional model interfaces: a
// session reports its KV footprint (page storage for the arena, exact row
// bytes for the slice cache), and Close releases everything.
func TestSessionCloseAndCacheBytes(t *testing.T) {
	cfg := goldenConfigs()[0]
	m := New(cfg)

	var _ model.Closer = (*Session)(nil)
	var _ model.CacheSizer = (*Session)(nil)

	paged := m.NewSession().(*Session)
	if got := paged.CacheBytes(); got != 0 {
		t.Fatalf("fresh session reports %d cache bytes", got)
	}
	prompt := []model.Token{1, 2, 3, 4, 5}
	paged.Prefill(prompt)
	afterPrefill := paged.CacheBytes()
	if afterPrefill <= 0 {
		t.Fatalf("post-prefill cache bytes = %d", afterPrefill)
	}
	paged.Decode(6)
	if got := paged.CacheBytes(); got < afterPrefill {
		t.Fatalf("cache bytes shrank after decode: %d -> %d", afterPrefill, got)
	}

	ref := m.Reference().NewSession().(*Session)
	ref.Prefill(prompt)
	wantSlice := 2 * len(prompt) * cfg.Layers * cfg.Hidden * 4 // K and V rows
	if got := ref.CacheBytes(); got != wantSlice {
		t.Fatalf("reference slice cache bytes = %d, want %d", got, wantSlice)
	}

	for _, s := range []*Session{paged, ref} {
		s.Close()
		if s.CacheBytes() != 0 {
			t.Fatal("CacheBytes nonzero after Close")
		}
		if s.Len() != 0 {
			t.Fatal("Len nonzero after Close")
		}
	}
}
