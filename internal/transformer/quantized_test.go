package transformer

import (
	"fmt"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/tensor"
)

// Tolerance gates for the quantized variant. Unlike the float variants,
// quantized is NOT bit-exact — 7-bit weights and activations carry real
// rounding error through every projection — so its contract is a
// tolerance band against the float model plus behavioural parity
// (greedy token identity here, acceptance-rate parity in internal/bench).
// The bounds below were calibrated on the golden configs: observed
// worst-case divergence is ~2.5% relative, so the 10% gate leaves ~4x
// headroom while a kernel regression that loses even one bit of the
// correction algebra blows through it.

// quantRelTol / quantAbsTol bound per-element divergence of the output
// probability distributions. The absolute floor matters because most of
// a distribution is near-zero mass where relative error is meaningless.
const (
	quantRelTol = 0.10
	quantAbsTol = 2e-3
)

func requireApprox(t *testing.T, ctx string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", ctx, len(got), len(want))
	}
	for i := range got {
		if !tensor.ApproxEqRel(float64(got[i]), float64(want[i]), quantRelTol, quantAbsTol) {
			t.Fatalf("%s: index %d diverged: quantized %v vs float %v (beyond rel %v / abs %v)",
				ctx, i, got[i], want[i], quantRelTol, quantAbsTol)
		}
	}
}

// TestQuantizedToleranceVsFloat drives a quantized session and a float
// paged session of the SAME model through an identical serving history —
// prefill, incremental decodes, tree decodes, accepts — and asserts every
// returned distribution stays inside the quantization tolerance band, for
// both architectures. This is the quantized analogue of
// TestBatchedForwardBitExactVsReference; the histories cannot drift
// because tokens are imposed, not sampled.
func TestQuantizedToleranceVsFloat(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.Arch.String(), func(t *testing.T) {
			m := New(cfg)
			qs := m.Quantized().NewSession()
			fs := m.NewSession()
			rng := tensor.NewRNG(1117)

			prompt := make([]model.Token, 9)
			for i := range prompt {
				prompt[i] = rng.Intn(cfg.Vocab)
			}
			requireApprox(t, "prefill", qs.Prefill(prompt), fs.Prefill(prompt))

			last := prompt[len(prompt)-1]
			for round := 0; round < 3; round++ {
				ctx := fmt.Sprintf("round %d", round)
				tok := rng.Intn(cfg.Vocab)
				requireApprox(t, ctx+" decode", qs.Decode(tok), fs.Decode(tok))
				last = tok

				tr := randomTree(rng, last, cfg.Vocab)
				dq := qs.DecodeTree(tr)
				df := fs.DecodeTree(tr)
				for id := 0; id < tr.Len(); id++ {
					requireApprox(t, fmt.Sprintf("%s tree node %d", ctx, id), dq[id], df[id])
				}

				var accepted []model.Token
				u := tr.Root()
				for len(tr.Node(u).Children) > 0 && rng.Intn(3) > 0 {
					u = tr.Node(u).Children[rng.Intn(len(tr.Node(u).Children))]
					accepted = append(accepted, tr.Node(u).Token)
				}
				accepted = append(accepted, rng.Intn(cfg.Vocab))
				requireApprox(t, ctx+" accept", qs.Accept(accepted), fs.Accept(accepted))
				last = accepted[len(accepted)-1]
			}
			if qs.Len() != fs.Len() {
				t.Fatalf("session lengths diverged: %d vs %d", qs.Len(), fs.Len())
			}
		})
	}
}

// TestQuantizedGreedyTokenIdentity: each session decodes greedily from
// its OWN distributions for a stretch of tokens; the quantized model must
// produce the token-identical continuation. Quantization noise may move
// probabilities, but on these smoke prompts it must not flip any argmax —
// the behavioural form of the tolerance contract.
func TestQuantizedGreedyTokenIdentity(t *testing.T) {
	argmax := func(d []float32) model.Token {
		best := 0
		for i, v := range d {
			if v > d[best] {
				best = i
			}
		}
		return best
	}
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(cfg.Arch.String(), func(t *testing.T) {
			m := New(cfg)
			qs := m.Quantized().NewSession()
			fs := m.NewSession()
			prompt := []model.Token{3, 14, 15, 9, 26, 5}
			dq := qs.Prefill(prompt)
			df := fs.Prefill(prompt)
			for step := 0; step < 24; step++ {
				tq, tf := argmax(dq), argmax(df)
				if tq != tf {
					t.Fatalf("step %d: greedy continuation diverged: quantized %d vs float %d",
						step, tq, tf)
				}
				dq = qs.Decode(tq)
				df = fs.Decode(tf)
			}
		})
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

// TestVariantResolution: the Varianter hook resolves every published
// variant name and rejects unknown ones.
func TestVariantResolution(t *testing.T) {
	m := New(testConfig(41))
	for name, wantName := range map[string]string{
		"":          m.Name(),
		"paged":     m.Name(),
		"slice":     m.SliceCache().Name(),
		"reference": m.Reference().Name(),
		"quantized": m.Quantized().Name(),
	} {
		v, ok := m.Variant(name)
		if !ok {
			t.Fatalf("Variant(%q) not resolved", name)
		}
		if v.Name() != wantName {
			t.Fatalf("Variant(%q) = %s, want %s", name, v.Name(), wantName)
		}
	}
	if _, ok := m.Variant("turbo"); ok {
		t.Fatal("Variant should reject unknown names")
	}
}

// TestQuantizedSharedWeights: all quantized sessions of a model share one
// lazily built weight set (quantization runs once, not per session).
func TestQuantizedSharedWeights(t *testing.T) {
	m := New(testConfig(42))
	q := m.Quantized()
	s1 := q.NewSession().(*Session)
	s2 := q.NewSession().(*Session)
	if s1.quant == nil || &s1.quant[0] != &s2.quant[0] {
		t.Fatal("quantized sessions must share the model's quantized weight set")
	}
}

// TestQuantizedDimValidation: Quantized refuses geometries the packed
// kernel cannot address (dims not divisible by the packing width).
func TestQuantizedDimValidation(t *testing.T) {
	cfg := testConfig(43)
	cfg.FFN = 66 // not a multiple of 4
	m := New(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for FFN not divisible by 4")
		}
	}()
	m.Quantized()
}
