package transformer

// Training support: full backpropagation through the LLaMA-style
// transformer with an Adam optimizer. The paper's SSMs are *trained*
// artifacts — either pre-trained alongside the LLM or boost-tuned against
// its outputs (§3) — so a faithful reproduction needs a way to fit one
// neural model to another. Trainer enables exactly that: distilling a
// small transformer SSM on sequences generated by a larger transformer
// LLM (see Distill), which measurably raises speculative acceptance over
// a randomly initialized SSM.
//
// Only ArchLLaMA is supported (the OPT branch shares the serving path but
// not the backward pass; extending it is mechanical).

import (
	"fmt"
	"math"

	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
)

// Trainer fits a transformer's weights with Adam on next-token
// cross-entropy.
type Trainer struct {
	m      *Model
	lr     float64
	params []paramTensor
	step   int
}

// paramTensor pairs a flat parameter vector with its gradient and Adam
// moments.
type paramTensor struct {
	name  string
	data  []float32
	grad  []float32
	adamM []float32
	adamV []float32
}

// NewTrainer prepares a trainer for the model. lr <= 0 defaults to 1e-2
// (appropriate for the tiny substrate models).
func NewTrainer(m *Model, lr float64) *Trainer {
	if m.cfg.Arch != ArchLLaMA {
		panic("transformer: training supports ArchLLaMA only")
	}
	if lr <= 0 {
		lr = 1e-2
	}
	t := &Trainer{m: m, lr: lr}
	add := func(name string, data []float32) {
		t.params = append(t.params, paramTensor{
			name:  name,
			data:  data,
			grad:  make([]float32, len(data)),
			adamM: make([]float32, len(data)),
			adamV: make([]float32, len(data)),
		})
	}
	add("embed", m.embed.Data)
	add("lmHead", m.lmHead.Data)
	add("finalNorm", m.finalNorm)
	for l := range m.layers {
		lw := &m.layers[l]
		p := fmt.Sprintf("layer%d.", l)
		add(p+"attnNorm", lw.attnNorm)
		add(p+"wq", lw.wq.Data)
		add(p+"wk", lw.wk.Data)
		add(p+"wv", lw.wv.Data)
		add(p+"wo", lw.wo.Data)
		add(p+"mlpNorm", lw.mlpNorm)
		add(p+"wGate", lw.wGate.Data)
		add(p+"wUp", lw.wUp.Data)
		add(p+"wDown", lw.wDown.Data)
	}
	return t
}

// Step runs one training step on a sequence (teacher forcing: positions
// 0..L-2 predict 1..L-1) and returns the mean cross-entropy loss. The
// sequence must have at least two tokens.
func (t *Trainer) Step(seq []model.Token) float64 {
	loss := t.LossAndGrads(seq)
	t.apply()
	return loss
}

// zeroGrads clears all gradient buffers.
func (t *Trainer) zeroGrads() {
	for i := range t.params {
		g := t.params[i].grad
		for j := range g {
			g[j] = 0
		}
	}
}

// apply performs one Adam update from the accumulated gradients.
func (t *Trainer) apply() {
	t.step++
	const b1, b2, eps = 0.9, 0.999, 1e-8
	c1 := 1 - math.Pow(b1, float64(t.step))
	c2 := 1 - math.Pow(b2, float64(t.step))
	for i := range t.params {
		p := &t.params[i]
		for j := range p.data {
			g := float64(p.grad[j])
			m := b1*float64(p.adamM[j]) + (1-b1)*g
			v := b2*float64(p.adamV[j]) + (1-b2)*g*g
			p.adamM[j] = float32(m)
			p.adamV[j] = float32(v)
			p.data[j] -= float32(t.lr * (m / c1) / (math.Sqrt(v/c2) + eps))
		}
	}
	t.m.repack()
}

// trainCache holds the forward intermediates of one layer needed by the
// backward pass.
type trainCache struct {
	xIn     [][]float32 // residual stream entering the layer
	aNorm   [][]float32 // rmsnorm(xIn)
	qr, kr  [][]float32 // post-RoPE projections
	v       [][]float32
	attW    [][][]float32 // [head][i][j<=i]
	attnOut [][]float32   // concat heads
	x1      [][]float32   // after attention residual
	bNorm   [][]float32   // rmsnorm(x1)
	gate    [][]float32   // pre-activation gate
	up      [][]float32
	act     [][]float32 // silu(gate)*up
}

// LossAndGrads computes the mean next-token cross-entropy of seq and
// fills the gradient buffers (zeroing them first). Exposed for gradient-
// check tests; most callers use Step.
func (t *Trainer) LossAndGrads(seq []model.Token) float64 {
	if len(seq) < 2 {
		panic("transformer: training sequence needs >= 2 tokens")
	}
	t.zeroGrads()
	cfg := t.m.cfg
	T := len(seq) - 1
	hd := cfg.headDim()
	scale := float32(1.0 / math.Sqrt(float64(hd)))

	// ---- Forward with caches ----
	x := make([][]float32, T)
	for i := 0; i < T; i++ {
		tok := seq[i]
		if tok < 0 || tok >= cfg.Vocab {
			panic("transformer: training token out of vocab")
		}
		x[i] = cloneVec(t.m.embed.Row(tok))
	}
	caches := make([]trainCache, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		lw := &t.m.layers[l]
		c := &caches[l]
		c.xIn = cloneRows(x)
		c.aNorm = newRows(T, cfg.Hidden)
		c.qr = newRows(T, cfg.Hidden)
		c.kr = newRows(T, cfg.Hidden)
		c.v = newRows(T, cfg.Hidden)
		c.attnOut = newRows(T, cfg.Hidden)
		c.attW = make([][][]float32, cfg.Heads)
		for h := range c.attW {
			c.attW[h] = make([][]float32, T)
		}
		for i := 0; i < T; i++ {
			tensor.RMSNorm(c.xIn[i], lw.attnNorm, c.aNorm[i], 1e-5)
			tensor.MatVec(lw.wq, c.aNorm[i], c.qr[i])
			tensor.MatVec(lw.wk, c.aNorm[i], c.kr[i])
			tensor.MatVec(lw.wv, c.aNorm[i], c.v[i])
			for h := 0; h < cfg.Heads; h++ {
				tensor.Rope(c.qr[i][h*hd:(h+1)*hd], i, t.m.ropeTheta)
				tensor.Rope(c.kr[i][h*hd:(h+1)*hd], i, t.m.ropeTheta)
			}
			for h := 0; h < cfg.Heads; h++ {
				qh := c.qr[i][h*hd : (h+1)*hd]
				w := make([]float32, i+1)
				for j := 0; j <= i; j++ {
					w[j] = tensor.Dot(qh, c.kr[j][h*hd:(h+1)*hd]) * scale
				}
				tensor.Softmax(w)
				c.attW[h][i] = w
				oh := c.attnOut[i][h*hd : (h+1)*hd]
				for j := 0; j <= i; j++ {
					tensor.Axpy(w[j], c.v[j][h*hd:(h+1)*hd], oh)
				}
			}
			proj := make([]float32, cfg.Hidden)
			tensor.MatVec(lw.wo, c.attnOut[i], proj)
			x[i] = addVec(c.xIn[i], proj)
		}
		c.x1 = cloneRows(x)
		c.bNorm = newRows(T, cfg.Hidden)
		c.gate = newRows(T, cfg.FFN)
		c.up = newRows(T, cfg.FFN)
		c.act = newRows(T, cfg.FFN)
		for i := 0; i < T; i++ {
			tensor.RMSNorm(c.x1[i], lw.mlpNorm, c.bNorm[i], 1e-5)
			tensor.MatVec(lw.wGate, c.bNorm[i], c.gate[i])
			tensor.MatVec(lw.wUp, c.bNorm[i], c.up[i])
			for d := 0; d < cfg.FFN; d++ {
				c.act[i][d] = silu(c.gate[i][d]) * c.up[i][d]
			}
			proj := make([]float32, cfg.Hidden)
			tensor.MatVec(lw.wDown, c.act[i], proj)
			x[i] = addVec(c.x1[i], proj)
		}
	}
	// Final norm + head.
	fNorm := newRows(T, cfg.Hidden)
	probs := newRows(T, cfg.Vocab)
	var loss float64
	for i := 0; i < T; i++ {
		tensor.RMSNorm(x[i], t.m.finalNorm, fNorm[i], 1e-5)
		tensor.MatVec(t.m.lmHead, fNorm[i], probs[i])
		tensor.Softmax(probs[i])
		p := float64(probs[i][seq[i+1]])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	loss /= float64(T)

	// ---- Backward ----
	g := t.gradIndex()
	dx := newRows(T, cfg.Hidden)
	dNormed := make([]float32, cfg.Hidden)
	for i := 0; i < T; i++ {
		dlogits := cloneVec(probs[i])
		dlogits[seq[i+1]] -= 1
		tensor.Scale(1/float32(T), dlogits)
		tensor.OuterAcc(dlogits, fNorm[i], g.mat("lmHead", cfg.Vocab, cfg.Hidden))
		tensor.MatVecT(t.m.lmHead, dlogits, dNormed)
		rmsNormBack(x[i], t.m.finalNorm, dNormed, dx[i], g.vec("finalNorm"))
	}

	for l := cfg.Layers - 1; l >= 0; l-- {
		lw := &t.m.layers[l]
		c := &caches[l]
		pfx := fmt.Sprintf("layer%d.", l)
		dxIn := newRows(T, cfg.Hidden)
		dAtt := newRows(T, cfg.Hidden) // grads of post-rope q (and k below)
		dK := newRows(T, cfg.Hidden)
		dV := newRows(T, cfg.Hidden)
		dGate := make([]float32, cfg.FFN)
		dUp := make([]float32, cfg.FFN)
		dAct := make([]float32, cfg.FFN)
		dB := make([]float32, cfg.Hidden)
		tmpH := make([]float32, cfg.Hidden)

		// MLP backward: dx[i] is the gradient of the layer output x2.
		for i := 0; i < T; i++ {
			// x2 = x1 + Wd act
			tensor.MatVecT(lw.wDown, dx[i], dAct)
			tensor.OuterAcc(dx[i], c.act[i], g.mat(pfx+"wDown", cfg.Hidden, cfg.FFN))
			for d := 0; d < cfg.FFN; d++ {
				z := c.gate[i][d]
				sg := sigmoid(z)
				siluZ := z * sg
				dGate[d] = dAct[d] * c.up[i][d] * (sg + z*sg*(1-sg))
				dUp[d] = dAct[d] * siluZ
			}
			tensor.OuterAcc(dGate, c.bNorm[i], g.mat(pfx+"wGate", cfg.FFN, cfg.Hidden))
			tensor.OuterAcc(dUp, c.bNorm[i], g.mat(pfx+"wUp", cfg.FFN, cfg.Hidden))
			tensor.MatVecT(lw.wGate, dGate, dB)
			tensor.MatVecT(lw.wUp, dUp, tmpH)
			tensor.Add(dB, tmpH)
			// x1 receives the residual gradient plus the norm path.
			rmsNormBack(c.x1[i], lw.mlpNorm, dB, dx[i], g.vec(pfx+"mlpNorm"))
			// dx[i] now holds dL/dx1 (residual added inside rmsNormBack's
			// accumulate-into semantics).
		}

		// Attention backward: dx[i] = dL/dx1; x1 = xIn + Wo attnOut.
		for i := 0; i < T; i++ {
			tensor.MatVecT(lw.wo, dx[i], tmpH) // d attnOut
			tensor.OuterAcc(dx[i], c.attnOut[i], g.mat(pfx+"wo", cfg.Hidden, cfg.Hidden))
			for h := 0; h < cfg.Heads; h++ {
				doH := tmpH[h*hd : (h+1)*hd]
				w := c.attW[h][i]
				dw := make([]float32, i+1)
				for j := 0; j <= i; j++ {
					dw[j] = tensor.Dot(doH, c.v[j][h*hd:(h+1)*hd])
					tensor.Axpy(w[j], doH, dV[j][h*hd:(h+1)*hd])
				}
				// softmax backward
				var dot float32
				for j := 0; j <= i; j++ {
					dot += w[j] * dw[j]
				}
				for j := 0; j <= i; j++ {
					ds := w[j] * (dw[j] - dot) * scale
					tensor.Axpy(ds, c.kr[j][h*hd:(h+1)*hd], dAtt[i][h*hd:(h+1)*hd])
					tensor.Axpy(ds, c.qr[i][h*hd:(h+1)*hd], dK[j][h*hd:(h+1)*hd])
				}
			}
		}
		// Undo RoPE on dq/dk, then back through the projections and the
		// attention norm.
		dA := make([]float32, cfg.Hidden)
		for i := 0; i < T; i++ {
			for h := 0; h < cfg.Heads; h++ {
				tensor.RopeInverse(dAtt[i][h*hd:(h+1)*hd], i, t.m.ropeTheta)
				tensor.RopeInverse(dK[i][h*hd:(h+1)*hd], i, t.m.ropeTheta)
			}
			tensor.OuterAcc(dAtt[i], c.aNorm[i], g.mat(pfx+"wq", cfg.Hidden, cfg.Hidden))
			tensor.OuterAcc(dK[i], c.aNorm[i], g.mat(pfx+"wk", cfg.Hidden, cfg.Hidden))
			tensor.OuterAcc(dV[i], c.aNorm[i], g.mat(pfx+"wv", cfg.Hidden, cfg.Hidden))
			tensor.MatVecT(lw.wq, dAtt[i], dA)
			tensor.MatVecT(lw.wk, dK[i], tmpH)
			tensor.Add(dA, tmpH)
			tensor.MatVecT(lw.wv, dV[i], tmpH)
			tensor.Add(dA, tmpH)
			// xIn receives residual gradient (already in dx[i]) + norm path.
			copy(dxIn[i], dx[i])
			rmsNormBack(c.xIn[i], lw.attnNorm, dA, dxIn[i], g.vec(pfx+"attnNorm"))
		}
		dx = dxIn
	}

	// Embedding gradient.
	embG := g.mat("embed", cfg.Vocab, cfg.Hidden)
	for i := 0; i < T; i++ {
		tensor.Add(embG.Row(seq[i]), dx[i])
	}
	return loss
}

// gradIndex provides named access to the gradient buffers.
type gradIndex struct{ byName map[string][]float32 }

func (t *Trainer) gradIndex() gradIndex {
	m := make(map[string][]float32, len(t.params))
	for i := range t.params {
		m[t.params[i].name] = t.params[i].grad
	}
	return gradIndex{byName: m}
}

func (g gradIndex) vec(name string) []float32 {
	v, ok := g.byName[name]
	if !ok {
		panic("transformer: unknown gradient " + name)
	}
	return v
}

func (g gradIndex) mat(name string, rows, cols int) *tensor.Matrix {
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: g.vec(name)}
}

// rmsNormBack backpropagates y = rmsnorm(x)*gain: given dL/dy (dy), it
// ACCUMULATES dL/dx into dxAcc and dL/dgain into dGain.
func rmsNormBack(x, gain, dy, dxAcc, dGain []float32) {
	n := float64(len(x))
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	r := 1.0 / math.Sqrt(ss/n+1e-5)
	var inner float64 // sum dy_i * gain_i * x_i
	for i := range x {
		inner += float64(dy[i]) * float64(gain[i]) * float64(x[i])
		dGain[i] += dy[i] * x[i] * float32(r)
	}
	k := r * r * r * inner / n
	for i := range x {
		dxAcc[i] += float32(float64(dy[i])*float64(gain[i])*r - float64(x[i])*k)
	}
}

func sigmoid(z float32) float32 {
	return 1 / (1 + float32(math.Exp(float64(-z))))
}

func silu(z float32) float32 { return z * sigmoid(z) }

func addVec(a, b []float32) []float32 {
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

func cloneRows(rows [][]float32) [][]float32 {
	out := make([][]float32, len(rows))
	for i, r := range rows {
		out[i] = cloneVec(r)
	}
	return out
}

func newRows(n, d int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, d)
	}
	return out
}

// TrainableModel adapts a Model and its Trainer to the Train(seq, weight)
// interface the boost-tuning loop expects (speculator.Trainable), so §3's
// merge-based construction can tune a pool of *neural* SSMs, not just
// n-gram ones.
type TrainableModel struct {
	*Model
	trainer *Trainer
}

// Trainable wraps the model for boost-tuning with the given learning
// rate (0 uses the trainer default).
func (m *Model) Trainable(lr float64) *TrainableModel {
	return &TrainableModel{Model: m, trainer: NewTrainer(m, lr)}
}

// Train runs gradient steps on the sequence; weight scales the number of
// passes (>=1 sequences train once; fractional weights are rounded up so
// boosting's reweighting still trains).
func (tm *TrainableModel) Train(seq []int, weight float64) {
	if weight <= 0 || len(seq) < 2 {
		return
	}
	passes := int(math.Ceil(weight))
	for p := 0; p < passes; p++ {
		tm.trainer.Step(seq)
	}
}

// Distill fits student to imitate teacher: it samples prompts from the
// given generator, extends them with teacher-generated continuations, and
// trains the student on the resulting sequences — the transformer
// counterpart of §3's boost-tuning data flow (teacher labels its own
// outputs; the student fits them).
func Distill(student *Trainer, teacher model.Model, genPrompt func() []model.Token,
	contTokens, steps int, seed uint64) (lastLoss float64) {
	rng := tensor.NewRNG(seed)
	greedy := sampling.GreedyConfig()
	for s := 0; s < steps; s++ {
		prompt := genPrompt()
		sess := teacher.NewSession()
		d := sess.Prefill(prompt)
		seq := append([]model.Token{}, prompt...)
		for i := 0; i < contTokens; i++ {
			tok := greedy.Sample(rng, d)
			seq = append(seq, tok)
			d = sess.Decode(tok)
		}
		lastLoss = student.Step(seq)
	}
	return lastLoss
}
