// Package ngram implements a back-off interpolated n-gram language model
// as a second model.Model substrate.
//
// Why it exists: the paper's acceptance-rate experiments (Tables 1-3,
// Figures 9-10) need an SSM whose output *approximates* an LLM — in the
// paper, LLaMA-68M approximating LLaMA-7B after pre-training on the same
// data. Random-weight transformers cannot exhibit alignment, and training
// multi-billion-parameter checkpoints is out of scope, so we reproduce the
// capacity gap with model *order and data*: the "LLM" is a high-order
// n-gram trained on a large synthetic corpus; "SSMs" are lower-order
// models trained on less data. Top-k overlap between them is then an
// emergent property of genuine statistical estimation, not a hard-coded
// acceptance rate; the entropy of the corpus calibrates it to the paper's
// Table 1 regime.
package ngram

import (
	"fmt"
	"math"

	"specinfer/internal/model"
	"specinfer/internal/tree"
)

// Config describes an n-gram model.
type Config struct {
	Name  string
	Vocab int
	// Order is the n in n-gram: contexts of up to Order-1 tokens.
	Order int
	// Smoothing is the uniform mass mixed into every distribution
	// (guards MSS's division by P_SSM and models estimation noise).
	Smoothing float64
	// BackoffBase weights context orders: order k gets weight
	// BackoffBase^k before normalization, so larger bases trust longer
	// contexts more. Must be > 1; 4 is a reasonable default.
	BackoffBase float64
	// Sharpen raises the final distribution to this power (renormalized).
	// Values > 1 model a CONFIDENT model: neural SSMs emit peaked
	// softmaxes even when wrong, whereas raw count mixtures are diffuse.
	// Sharpening is rank-preserving, so top-k acceptance (Table 1) is
	// unaffected while the distribution overlap that drives MSS
	// acceptance drops to realistic levels. 0 or 1 disables.
	Sharpen float64
}

func (c Config) withDefaults() Config {
	if c.Smoothing <= 0 {
		c.Smoothing = 0.01
	}
	if c.BackoffBase <= 1 {
		c.BackoffBase = 4
	}
	return c
}

// Model is a trainable interpolated n-gram LM implementing model.Model.
// Train may be called multiple times (counts accumulate), but must not
// race with serving sessions.
type Model struct {
	cfg    Config
	counts []map[string]*ctxCounts // counts[k]: contexts of length k
}

type ctxCounts struct {
	tok   map[int]float64
	total float64
}

var _ model.Model = (*Model)(nil)

// New creates an empty n-gram model. An untrained model emits the uniform
// distribution.
func New(cfg Config) *Model {
	if cfg.Vocab < 2 {
		panic("ngram: vocab must be >= 2")
	}
	if cfg.Order < 1 {
		panic("ngram: order must be >= 1")
	}
	cfg = cfg.withDefaults()
	m := &Model{cfg: cfg}
	m.counts = make([]map[string]*ctxCounts, cfg.Order)
	for k := range m.counts {
		m.counts[k] = make(map[string]*ctxCounts)
	}
	return m
}

// Name implements model.Model.
func (m *Model) Name() string { return m.cfg.Name }

// VocabSize implements model.Model.
func (m *Model) VocabSize() int { return m.cfg.Vocab }

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// ctxKey encodes a context exactly (2 bytes per token), avoiding hash
// collisions.
func ctxKey(ctx []int) string {
	b := make([]byte, 2*len(ctx))
	for i, t := range ctx {
		b[2*i] = byte(t >> 8)
		b[2*i+1] = byte(t)
	}
	return string(b)
}

// Train accumulates counts from a token sequence with the given sample
// weight (boosting uses weights; plain training passes 1).
func (m *Model) Train(seq []int, weight float64) {
	if weight <= 0 {
		return
	}
	for i := 0; i < len(seq); i++ {
		tok := seq[i]
		if tok < 0 || tok >= m.cfg.Vocab {
			panic(fmt.Sprintf("ngram: token %d out of vocab %d", tok, m.cfg.Vocab))
		}
		for k := 0; k < m.cfg.Order && k <= i; k++ {
			key := ctxKey(seq[i-k : i])
			cc := m.counts[k][key]
			if cc == nil {
				cc = &ctxCounts{tok: make(map[int]float64)}
				m.counts[k][key] = cc
			}
			cc.tok[tok] += weight
			cc.total += weight
		}
	}
}

// TrainCorpus trains on every sequence of a corpus with weight 1.
func (m *Model) TrainCorpus(corpus [][]int) {
	for _, seq := range corpus {
		m.Train(seq, 1)
	}
}

// NumContexts returns the number of distinct contexts at each order,
// useful for diagnostics.
func (m *Model) NumContexts() []int {
	out := make([]int, m.cfg.Order)
	for k := range m.counts {
		out[k] = len(m.counts[k])
	}
	return out
}

// Dist computes the next-token distribution after history. This is the
// whole model: interpolate the empirical distributions of every matching
// context order, weighting longer contexts more, then mix in uniform
// smoothing mass.
func (m *Model) Dist(history []int) []float32 {
	p := make([]float32, m.cfg.Vocab)
	var wsum float64
	for k := 0; k < m.cfg.Order; k++ {
		if k > len(history) {
			break
		}
		ctx := history[len(history)-k:]
		cc := m.counts[k][ctxKey(ctx)]
		if cc == nil || cc.total == 0 {
			continue
		}
		w := math.Pow(m.cfg.BackoffBase, float64(k))
		inv := w / cc.total
		for tok, c := range cc.tok {
			p[tok] += float32(c * inv)
		}
		wsum += w
	}
	eps := float32(m.cfg.Smoothing)
	uni := float32(1) / float32(m.cfg.Vocab)
	if wsum == 0 {
		for i := range p {
			p[i] = uni
		}
		return p
	}
	scale := float32(1/wsum) * (1 - eps)
	for i := range p {
		p[i] = p[i]*scale + eps*uni
	}
	if g := m.cfg.Sharpen; g > 0 && g != 1 {
		var sum float64
		for i, v := range p {
			s := float32(math.Pow(float64(v), g))
			p[i] = s
			sum += float64(s)
		}
		inv := float32(1 / sum)
		for i := range p {
			p[i] *= inv
		}
	}
	return p
}

// NewSession implements model.Model.
func (m *Model) NewSession() model.Session {
	return &session{m: m}
}

// session tracks the committed token history; n-gram "decoding" is just a
// context-window lookup, so tree decoding needs no special kernel: a
// depth-first walk scores every node from its own root path on each call.
type session struct {
	m        *Model
	history  []int
	prefDone bool
}

var _ model.Session = (*session)(nil)

func (s *session) Len() int { return len(s.history) }

func (s *session) Prefill(prompt []model.Token) []float32 {
	if s.prefDone {
		panic("ngram: Prefill on non-empty session")
	}
	if len(prompt) == 0 {
		panic("ngram: empty prompt")
	}
	s.prefDone = true
	s.history = append(s.history, prompt...)
	return s.m.Dist(s.history)
}

func (s *session) Decode(tok model.Token) []float32 {
	if !s.prefDone {
		panic("ngram: Decode before Prefill")
	}
	s.history = append(s.history, tok)
	return s.m.Dist(s.history)
}

func (s *session) DecodeTree(t *tree.Tree) [][]float32 {
	if !s.prefDone {
		panic("ngram: DecodeTree before Prefill")
	}
	out := make([][]float32, t.Len())
	// history already ends with the root token.
	base := append([]int(nil), s.history...)
	var visit func(u tree.NodeID, hist []int)
	visit = func(u tree.NodeID, hist []int) {
		out[u] = s.m.Dist(hist)
		for _, c := range t.Node(u).Children {
			visit(c, append(hist, t.Node(c).Token))
		}
	}
	visit(t.Root(), base)
	return out
}

func (s *session) Accept(tokens []model.Token) []float32 {
	if !s.prefDone {
		panic("ngram: Accept before Prefill")
	}
	s.history = append(s.history, tokens...)
	return s.m.Dist(s.history)
}
