package transformer

import (
	"fmt"
	"runtime"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/tensor"
)

// Golden tests for the paged head-major KV arena and the intra-forward
// attention pool. Three sessions of the same weights must agree
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

// attnWorkerCounts returns the pool sizes the sweep covers. An explicit
// count always engages the pool (the small-pass serial gate only applies
// to the implicit default), so even tiny golden models exercise the
// parallel path at 4 workers.
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
			cfg.Name = fmt.Sprintf("%s-w%d", base.Name, workers)
			cfg.AttnWorkers = workers
			t.Run(fmt.Sprintf("%s/attnworkers=%d", cfg.Arch, workers), func(t *testing.T) {
				m := New(cfg)
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

// TestAttnWorkersDefaultMatchesExplicit: the implicit pool (AttnWorkers=0,
// size gate active) must be bit-identical to an explicit single worker.
func TestAttnWorkersDefaultMatchesExplicit(t *testing.T) {
	base := goldenConfigs()[0]
	one := base
	one.Name, one.AttnWorkers = base.Name+"-w1", 1
	mDef, mOne := New(base), New(one)
	a, b := mDef.NewSession(), mOne.NewSession()
	rng := tensor.NewRNG(55)
	prompt := make([]model.Token, 8)
	for i := range prompt {
		prompt[i] = rng.Intn(base.Vocab)
	}
	requireExact(t, "prefill", a.Prefill(prompt), b.Prefill(prompt))
	for i := 0; i < 6; i++ {
		tok := rng.Intn(base.Vocab)
		requireExact(t, fmt.Sprintf("decode %d", i), a.Decode(tok), b.Decode(tok))
	}
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
