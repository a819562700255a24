package transformer

import (
	"fmt"

	"specinfer/internal/model"
	"specinfer/internal/tensor"
)

// The quantized variant: same model, same paged KV arena, same batched
// forward schedule — but every projection matmul (QKV, attention output,
// MLP, LM head) runs on 7-bit block-quantized weights through the SWAR
// integer-dot kernel (tensor.MatMulTQ), with activations quantized on
// the fly per matmul. Embeddings and position tables stay float (they
// are lookups, not weight-streaming matmuls), normalization, RoPE,
// softmax and the attention arithmetic over the float KV cache are
// untouched.
//
// This is the repository's first variant that is NOT bit-exact with the
// float paths: quantization error is real and intended. The attribution
// discipline adapts instead of breaking — the variant is gated by
// tolerance tests (tensor.ApproxEqRel) against the float model, an
// exact-integer-math kernel test in internal/tensor, acceptance-rate
// parity on the Table-1 alignment workloads, and greedy token-identity
// on the engine smoke prompts (DESIGN.md §12 states the full contract).

// quantizedWeights lazily quantizes the model's projection weights
// (Model.projs order). Safe for concurrent sessions: the once guards the
// build, and the result is immutable afterwards.
func (m *Model) quantizedWeights() []*tensor.QuantMatrix {
	m.quantOnce.Do(func() {
		m.quant = make([]*tensor.QuantMatrix, len(m.projs))
		for i, w := range m.projs {
			if w != nil {
				m.quant[i] = tensor.Quantize(w, tensor.QuantBlock)
			}
		}
	})
	return m.quant
}

// quantModel is a view of a Model whose sessions run the batched forward
// path with block-quantized projection weights.
type quantModel struct{ *Model }

// Quantized returns a model.Model view of m whose sessions stream 7-bit
// block-quantized weights through the integer matmul kernel over the
// paged KV arena. Unlike Reference() and SliceCache(), this view is NOT
// bit-exact with the float paths — it trades bounded quantization error
// for roughly half the weight bytes per matmul (see the package comment
// and DESIGN.md §12). The quantized weights are built lazily on the
// first session and shared by all of them.
func (m *Model) Quantized() model.Model {
	if m.cfg.Hidden%4 != 0 || m.cfg.FFN%4 != 0 {
		panic(fmt.Sprintf("transformer: Quantized requires hidden (%d) and ffn (%d) divisible by 4",
			m.cfg.Hidden, m.cfg.FFN))
	}
	return quantModel{m}
}

// NewSession implements model.Model.
func (qm quantModel) NewSession() model.Session {
	s := qm.Model.NewSession().(*Session)
	s.quant = qm.Model.quantizedWeights()
	return s
}

// Variant implements model.Varianter: it resolves a named view of the
// model for Config-level variant selection (internal/core, the CLIs).
// The empty name and "paged" are the default batched/paged model itself;
// "slice", "reference", and "quantized" are the SliceCache, Reference,
// and Quantized views.
func (m *Model) Variant(name string) (model.Model, bool) {
	switch name {
	case "", "paged":
		return m, true
	case "slice":
		return m.SliceCache(), true
	case "reference":
		return m.Reference(), true
	case "quantized":
		return m.Quantized(), true
	}
	return nil, false
}
