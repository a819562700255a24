package transformer

import (
	"fmt"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// Golden bit-exactness tests for the batched forward path: the batched
// kernels keep every per-element reduction in the same sequential order as
// the scalar reference, so the two paths must agree float-for-float, not
// just within a tolerance. Any drift here means the batched path changed
// the math, which would silently alter every acceptance decision downstream.

func goldenConfigs() []Config {
	llama := Config{
		Name: "golden-llama", Arch: ArchLLaMA,
		Vocab: 48, Hidden: 32, Heads: 4, FFN: 64, Layers: 3, Seed: 99,
	}
	opt := Config{
		Name: "golden-opt", Arch: ArchOPT,
		Vocab: 48, Hidden: 32, Heads: 4, FFN: 64, Layers: 3, Seed: 77,
	}
	return []Config{llama, opt}
}

func requireExact(t *testing.T, ctx string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d differs: %v vs %v (bit-exactness broken)",
				ctx, i, got[i], want[i])
		}
	}
}

// randomTree builds a random token tree rooted at rootTok: random depth,
// random branching, tokens drawn from the vocabulary.
func randomTree(rng *tensor.RNG, rootTok, vocab int) *tree.Tree {
	tr := tree.New(rootTok)
	frontier := []tree.NodeID{tr.Root()}
	depth := 1 + rng.Intn(4)
	for d := 0; d < depth; d++ {
		var next []tree.NodeID
		for _, u := range frontier {
			kids := 1 + rng.Intn(3)
			for c := 0; c < kids; c++ {
				tok := rng.Intn(vocab)
				if tr.ChildWithToken(u, tok) != -1 {
					continue
				}
				next = append(next, tr.AddChild(u, tok, 1, 0))
			}
		}
		if len(next) == 0 {
			break
		}
		frontier = next
	}
	return tr
}

// TestBatchedForwardBitExactVsReference drives a batched session and a
// reference (pre-batching scalar path) session of the SAME model through
// an identical serving history — prefill, incremental decodes, tree
// decodes over random trees, accepts with KV reuse and off-tree bonus
// tokens — and asserts every returned distribution is identical to the
// last bit, for both architectures.
func TestBatchedForwardBitExactVsReference(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.Arch.String(), func(t *testing.T) {
			m := New(cfg)
			bat := m.NewSession()
			ref := m.Reference().NewSession()
			rng := tensor.NewRNG(2024)

			prompt := make([]model.Token, 9)
			for i := range prompt {
				prompt[i] = rng.Intn(cfg.Vocab)
			}
			requireExact(t, "prefill", bat.Prefill(prompt), ref.Prefill(prompt))

			last := prompt[len(prompt)-1]
			for round := 0; round < 4; round++ {
				ctx := fmt.Sprintf("round %d", round)
				tok := rng.Intn(cfg.Vocab)
				requireExact(t, ctx+" decode", bat.Decode(tok), ref.Decode(tok))
				last = tok

				tr := randomTree(rng, last, cfg.Vocab)
				db := bat.DecodeTree(tr)
				dr := ref.DecodeTree(tr)
				for id := 0; id < tr.Len(); id++ {
					requireExact(t, fmt.Sprintf("%s tree node %d", ctx, id), db[id], dr[id])
				}

				// Accept a random root path (KV reuse from tree scratch)
				// plus an off-tree bonus token (normal decode inside Accept).
				var accepted []model.Token
				u := tr.Root()
				for len(tr.Node(u).Children) > 0 && rng.Intn(3) > 0 {
					u = tr.Node(u).Children[rng.Intn(len(tr.Node(u).Children))]
					accepted = append(accepted, tr.Node(u).Token)
				}
				accepted = append(accepted, rng.Intn(cfg.Vocab))
				requireExact(t, ctx+" accept", bat.Accept(accepted), ref.Accept(accepted))
				last = accepted[len(accepted)-1]
			}
			if bat.Len() != ref.Len() {
				t.Fatalf("session lengths diverged: %d vs %d", bat.Len(), ref.Len())
			}
		})
	}
}

// TestDecodeTreeBitExactVsSequenceDecode asserts the strong form of §4.2's
// equivalence on the batched path: for every node u of a random tree, the
// distribution from ONE batched tree-parallel pass equals — bitwise — the
// distribution a reference-path session produces by decoding S_u token by
// token. Masked softmax slots contribute exactly 0 to the float64 score
// sum and masked V rows are skipped, so even the tree's extra masked
// positions leave no trace in the arithmetic.
func TestDecodeTreeBitExactVsSequenceDecode(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.Arch.String(), func(t *testing.T) {
			m := New(cfg)
			rng := tensor.NewRNG(4242)
			prompt := make([]model.Token, 6)
			for i := range prompt {
				prompt[i] = rng.Intn(cfg.Vocab)
			}

			s := m.NewSession()
			s.Prefill(prompt)
			tr := randomTree(rng, prompt[len(prompt)-1], cfg.Vocab)
			dists := s.DecodeTree(tr)

			for id := 0; id < tr.Len(); id++ {
				ref := m.Reference().NewSession()
				d := ref.Prefill(prompt)
				for _, tok := range tr.Sequence(id)[1:] {
					d = ref.Decode(tok)
				}
				requireExact(t, fmt.Sprintf("node %d", id), dists[id], d)
			}
		})
	}
}

// TestDecodeTreeSingleCopy pins down the satellite fix: the distributions
// DecodeTree returns are the very slices the session retains for Accept
// (copied once out of the forward pass, not re-cloned on return).
func TestDecodeTreeSingleCopy(t *testing.T) {
	m := New(testConfig(31))
	s := m.NewSession().(*Session)
	s.Prefill([]int{1, 2, 3})
	tr := tree.New(3)
	a := tr.AddChild(tr.Root(), 7, 1, 0)
	tr.AddChild(a, 9, 1, 0)
	dists := s.DecodeTree(tr)
	for id := 0; id < tr.Len(); id++ {
		if len(dists[id]) == 0 || &dists[id][0] != &s.tree.dists[id][0] {
			t.Fatalf("node %d: returned distribution re-cloned instead of shared with retention", id)
		}
	}
}

// TestScratchReuseAcrossCalls checks the arena actually amortizes: after a
// warm-up pass, repeated decodes reuse the same scratch storage.
func TestScratchReuseAcrossCalls(t *testing.T) {
	m := New(testConfig(32))
	s := m.NewSession().(*Session)
	s.Prefill([]int{1, 2, 3, 4})
	s.Decode(5)
	x1 := s.ws.scr.Mat("x", 1, m.cfg.Hidden)
	s.Decode(6)
	x2 := s.ws.scr.Mat("x", 1, m.cfg.Hidden)
	if &x1.Data[0] != &x2.Data[0] {
		t.Fatal("scratch arena reallocated between equal-sized decodes")
	}
}

// TestChunkedPrefillBitExact: prompts longer than prefillChunk run
// through multiple forward passes on the batched path; the result must be
// bit-identical to the monolithic single-pass reference. This pins the
// chunking argument (cached-segment dot ordering equals in-pass mask
// ordering) with a prompt spanning several chunk boundaries.
func TestChunkedPrefillBitExact(t *testing.T) {
	if prefillChunk >= 300 {
		t.Fatalf("test prompt no longer spans chunks (prefillChunk=%d)", prefillChunk)
	}
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.Arch.String(), func(t *testing.T) {
			m := New(cfg)
			bat := m.NewSession()
			ref := m.Reference().NewSession()
			rng := tensor.NewRNG(31337)
			prompt := make([]model.Token, 300)
			for i := range prompt {
				prompt[i] = rng.Intn(cfg.Vocab)
			}
			requireExact(t, "long prefill", bat.Prefill(prompt), ref.Prefill(prompt))
			// One decode after: the cache contents chunking produced must
			// also be identical, not just the final distribution.
			tok := rng.Intn(cfg.Vocab)
			requireExact(t, "post-prefill decode", bat.Decode(tok), ref.Decode(tok))
			if bat.Len() != ref.Len() {
				t.Fatalf("lengths diverged: %d vs %d", bat.Len(), ref.Len())
			}
		})
	}
}
