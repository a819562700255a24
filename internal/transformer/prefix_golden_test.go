package transformer

import (
	"fmt"
	"testing"

	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/tensor"
)

// Golden tests for prefill-from-shared-pages: a session that adopts a
// cached prefix (PrefillShared) must be float-for-float identical to a
// cold session that prefilled the full prompt, through the prefill
// itself and every subsequent decode — for both architectures and every
// attention-worker count. Any drift means the adopted pages or the
// suffix positions changed the arithmetic.

// sharedPrompts builds a donor prompt and a probe prompt sharing their
// first prefixLen tokens (one full default page plus a few), diverging
// after.
func sharedPrompts(rng *tensor.RNG, vocab, prefixLen, suffixLen int) (donor, probe []model.Token) {
	prefix := make([]model.Token, prefixLen)
	for i := range prefix {
		prefix[i] = rng.Intn(vocab)
	}
	donor = append([]model.Token(nil), prefix...)
	probe = append([]model.Token(nil), prefix...)
	for i := 0; i < suffixLen; i++ {
		donor = append(donor, rng.Intn(vocab))
		probe = append(probe, rng.Intn(vocab))
	}
	return donor, probe
}

func TestPrefillSharedBitExactVsColdPrefill(t *testing.T) {
	for _, base := range goldenConfigs() {
		for _, workers := range attnWorkerCounts() {
			cfg := base
			t.Run(fmt.Sprintf("%s/attnworkers=%d", cfg.Arch, workers), func(t *testing.T) {
				m := New(cfg)
				m.attnSplit = workers
				cache := kvcache.NewPrefixCache(1 << 24)
				rng := tensor.NewRNG(4242)
				// 70 shared tokens: one full 64-row page plus 6 boundary
				// rows; 10-token divergent suffixes.
				donorPrompt, probePrompt := sharedPrompts(rng, cfg.Vocab, 70, 10)

				donor := m.NewSession().(*Session)
				donor.Prefill(donorPrompt)
				cache.Insert(m.Name(), donorPrompt, donor.Arena())

				h := cache.Lookup(m.Name(), probePrompt, len(probePrompt)-1)
				if h == nil || h.Len() != kvcache.DefaultPageRows {
					t.Fatalf("lookup = %v, want a %d-token page hit", h, kvcache.DefaultPageRows)
				}
				defer h.Release()

				warm := m.NewSession().(*Session)
				cold := m.NewSession().(*Session)
				dw := warm.PrefillShared(h, probePrompt)
				dc := cold.Prefill(probePrompt)
				requireExact(t, "prefill dist", dw, dc)
				if warm.Len() != cold.Len() {
					t.Fatalf("warm Len %d != cold Len %d", warm.Len(), cold.Len())
				}

				// The adopted prefix must also READ identically: drive both
				// sessions through decodes, a tree verification, and an
				// accept with an off-tree tail, comparing every distribution.
				for i := 0; i < 3; i++ {
					tok := rng.Intn(cfg.Vocab)
					requireExact(t, fmt.Sprintf("decode %d", i), warm.Decode(tok), cold.Decode(tok))
				}
				tr := randomTree(rng, rng.Intn(cfg.Vocab), cfg.Vocab)
				ow := warm.DecodeTree(tr)
				oc := cold.DecodeTree(tr)
				for id := range ow {
					requireExact(t, fmt.Sprintf("tree node %d", id), ow[id], oc[id])
				}
				accepted := []model.Token{
					tr.Node(tr.Node(tr.Root()).Children[0]).Token,
					model.Token(rng.Intn(cfg.Vocab)),
					model.Token(rng.Intn(cfg.Vocab)),
				}
				requireExact(t, "accept dist", warm.Accept(accepted), cold.Accept(accepted))
			})
		}
	}
}

// TestPrefillSharedIdenticalPromptUsesTail covers the tail path: the
// probe prompt extends the donor prompt, so the match runs past the page
// boundary through the copied 6-row tail and only the 2-token extension
// is computed.
func TestPrefillSharedIdenticalPromptUsesTail(t *testing.T) {
	cfg := goldenConfigs()[0]
	m := New(cfg)
	cache := kvcache.NewPrefixCache(1 << 24)
	rng := tensor.NewRNG(99)
	prompt := make([]model.Token, 70)
	for i := range prompt {
		prompt[i] = rng.Intn(cfg.Vocab)
	}

	donor := m.NewSession().(*Session)
	donor.Prefill(prompt)
	cache.Insert(m.Name(), prompt, donor.Arena())
	// Insert records 64 page rows + a 6-row tail. The tail is
	// all-or-nothing, so a lookup for the donor prompt itself capped at 69
	// stops at the page — extend the probe past the donor so pages + tail
	// (70 tokens) fit under the cap.
	probe := append(append([]model.Token(nil), prompt...),
		model.Token(rng.Intn(cfg.Vocab)), model.Token(rng.Intn(cfg.Vocab)))
	h := cache.Lookup(m.Name(), probe, len(probe)-1)
	if h == nil || h.Len() != 70 {
		t.Fatalf("lookup = %v, want full 70-token hit", h)
	}
	defer h.Release()

	warm := m.NewSession().(*Session)
	cold := m.NewSession().(*Session)
	requireExact(t, "prefill dist", warm.PrefillShared(h, probe), cold.Prefill(probe))
	requireExact(t, "post-tail decode", warm.Decode(probe[0]), cold.Decode(probe[0]))
}

func TestPrefillSharedGuards(t *testing.T) {
	cfg := goldenConfigs()[0]
	m := New(cfg)
	cache := kvcache.NewPrefixCache(1 << 24)
	rng := tensor.NewRNG(7)
	prompt := make([]model.Token, 66)
	for i := range prompt {
		prompt[i] = rng.Intn(cfg.Vocab)
	}
	donor := m.NewSession().(*Session)
	donor.Prefill(prompt)
	cache.Insert(m.Name(), prompt, donor.Arena())
	h := cache.Lookup(m.Name(), prompt, 64)
	if h == nil {
		t.Fatal("expected page hit")
	}
	defer h.Release()

	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	// A 64-token prefix of a 64-token prompt is not a STRICT prefix.
	expectPanic("non-strict prefix", func() {
		m.NewSession().(*Session).PrefillShared(h, prompt[:64])
	})
	expectPanic("non-empty session", func() {
		s := m.NewSession().(*Session)
		s.Prefill(prompt[:4])
		s.PrefillShared(h, prompt)
	})
	expectPanic("reference session", func() {
		m.Reference().NewSession().(*Session).PrefillShared(h, prompt)
	})
	// Reference sessions report no arena (the capability gate core uses
	// to fall back to cold prefill).
	if m.Reference().NewSession().(*Session).Arena() != nil {
		t.Fatal("reference session reports an arena")
	}
}
