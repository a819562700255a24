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

	grads trainGrads // views of the params' gradient buffers, built once
	work  *trainWork // LossAndGrads' buffers, grown to the longest sequence
}

// trainGrads views the gradient buffers of the parameters by role.
type trainGrads struct {
	embed, lmHead *tensor.Matrix
	finalNorm     []float32
	layers        []layerGrads
}

type layerGrads struct {
	attnNorm, mlpNorm []float32
	wq, wk, wv, wo    *tensor.Matrix
	wGate, wUp, wDown *tensor.Matrix
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
	add := func(name string, data []float32) []float32 {
		g := make([]float32, len(data))
		t.params = append(t.params, paramTensor{
			name:  name,
			data:  data,
			grad:  g,
			adamM: make([]float32, len(data)),
			adamV: make([]float32, len(data)),
		})
		return g
	}
	mat := func(name string, w *tensor.Matrix) *tensor.Matrix {
		return &tensor.Matrix{Rows: w.Rows, Cols: w.Cols, Data: add(name, w.Data)}
	}
	t.grads.embed = mat("embed", m.embed)
	t.grads.lmHead = mat("lmHead", m.lmHead)
	t.grads.finalNorm = add("finalNorm", m.finalNorm)
	for l := range m.layers {
		lw := &m.layers[l]
		p := fmt.Sprintf("layer%d.", l)
		var g layerGrads
		g.attnNorm = add(p+"attnNorm", lw.attnNorm)
		g.wq = mat(p+"wq", lw.wq)
		g.wk = mat(p+"wk", lw.wk)
		g.wv = mat(p+"wv", lw.wv)
		g.wo = mat(p+"wo", lw.wo)
		g.mlpNorm = add(p+"mlpNorm", lw.mlpNorm)
		g.wGate = mat(p+"wGate", lw.wGate)
		g.wUp = mat(p+"wUp", lw.wUp)
		g.wDown = mat(p+"wDown", lw.wDown)
		t.grads.layers = append(t.grads.layers, g)
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

// trainWork is a Trainer's step workspace: every activation and gradient
// row LossAndGrads uses, for sequences of up to maxT predicted
// positions. Only the first T rows of a step are touched; buffers that
// the step accumulates into are cleared before use, the rest are fully
// overwritten.
type trainWork struct {
	maxT                     int
	x, fNorm, probs          [][]float32
	dx, dxIn, dAtt, dK, dV   [][]float32
	layers                   []trainCache
	proj, dlogits, dNormed   []float32
	dGate, dUp, dAct, dB, dw []float32
	tmpH, dA                 []float32
}

func newTrainWork(cfg Config, maxT int) *trainWork {
	hid, ffn := cfg.Hidden, cfg.FFN
	w := &trainWork{
		maxT: maxT,
		x:    newRows(maxT, hid), fNorm: newRows(maxT, hid), probs: newRows(maxT, cfg.Vocab),
		dx: newRows(maxT, hid), dxIn: newRows(maxT, hid),
		dAtt: newRows(maxT, hid), dK: newRows(maxT, hid), dV: newRows(maxT, hid),
		layers:  make([]trainCache, cfg.Layers),
		proj:    make([]float32, hid),
		dlogits: make([]float32, cfg.Vocab), dNormed: make([]float32, hid),
		dGate: make([]float32, ffn), dUp: make([]float32, ffn), dAct: make([]float32, ffn),
		dB: make([]float32, hid), dw: make([]float32, maxT),
		tmpH: make([]float32, hid), dA: make([]float32, hid),
	}
	for l := range w.layers {
		c := &w.layers[l]
		c.xIn, c.aNorm = newRows(maxT, hid), newRows(maxT, hid)
		c.qr, c.kr, c.v = newRows(maxT, hid), newRows(maxT, hid), newRows(maxT, hid)
		c.attnOut, c.x1, c.bNorm = newRows(maxT, hid), newRows(maxT, hid), newRows(maxT, hid)
		c.gate, c.up, c.act = newRows(maxT, ffn), newRows(maxT, ffn), newRows(maxT, ffn)
		// Row i of a head's attention weights has i+1 entries: one
		// triangular slab per head.
		c.attW = make([][][]float32, cfg.Heads)
		for h := range c.attW {
			slab := make([]float32, maxT*(maxT+1)/2)
			c.attW[h] = make([][]float32, maxT)
			for i := range c.attW[h] {
				c.attW[h][i] = slab[i*(i+1)/2 : (i+1)*(i+2)/2]
			}
		}
	}
	return w
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
	if t.work == nil || t.work.maxT < T {
		t.work = newTrainWork(cfg, T)
	}
	ws := t.work
	proj := ws.proj

	// ---- Forward with caches ----
	x := ws.x
	for i := 0; i < T; i++ {
		tok := seq[i]
		if tok < 0 || tok >= cfg.Vocab {
			panic("transformer: training token out of vocab")
		}
		copy(x[i], t.m.embed.Row(tok))
	}
	for l := 0; l < cfg.Layers; l++ {
		lw := &t.m.layers[l]
		c := &ws.layers[l]
		for i := 0; i < T; i++ {
			copy(c.xIn[i], x[i])
			clear(c.attnOut[i])
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
				w := c.attW[h][i]
				for j := 0; j <= i; j++ {
					w[j] = tensor.Dot(qh, c.kr[j][h*hd:(h+1)*hd]) * scale
				}
				tensor.Softmax(w)
				oh := c.attnOut[i][h*hd : (h+1)*hd]
				for j := 0; j <= i; j++ {
					tensor.Axpy(w[j], c.v[j][h*hd:(h+1)*hd], oh)
				}
			}
			tensor.MatVec(lw.wo, c.attnOut[i], proj)
			addInto(x[i], c.xIn[i], proj)
		}
		for i := 0; i < T; i++ {
			copy(c.x1[i], x[i])
		}
		for i := 0; i < T; i++ {
			tensor.RMSNorm(c.x1[i], lw.mlpNorm, c.bNorm[i], 1e-5)
			tensor.MatVec(lw.wGate, c.bNorm[i], c.gate[i])
			tensor.MatVec(lw.wUp, c.bNorm[i], c.up[i])
			for d := 0; d < cfg.FFN; d++ {
				c.act[i][d] = silu(c.gate[i][d]) * c.up[i][d]
			}
			tensor.MatVec(lw.wDown, c.act[i], proj)
			addInto(x[i], c.x1[i], proj)
		}
	}
	// Final norm + head.
	fNorm, probs := ws.fNorm, ws.probs
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
	g := &t.grads
	dx, dxIn := ws.dx, ws.dxIn
	dNormed, dlogits := ws.dNormed, ws.dlogits
	for i := 0; i < T; i++ {
		clear(dx[i])
	}
	for i := 0; i < T; i++ {
		copy(dlogits, probs[i])
		dlogits[seq[i+1]] -= 1
		tensor.Scale(1/float32(T), dlogits)
		tensor.OuterAcc(dlogits, fNorm[i], g.lmHead)
		tensor.MatVecT(t.m.lmHead, dlogits, dNormed)
		rmsNormBack(x[i], t.m.finalNorm, dNormed, dx[i], g.finalNorm)
	}

	dAtt, dK, dV := ws.dAtt, ws.dK, ws.dV // grads of post-rope q and k, and of v
	dGate, dUp, dAct, dB, tmpH := ws.dGate, ws.dUp, ws.dAct, ws.dB, ws.tmpH
	for l := cfg.Layers - 1; l >= 0; l-- {
		lw := &t.m.layers[l]
		lg := &g.layers[l]
		c := &ws.layers[l]
		for i := 0; i < T; i++ {
			clear(dAtt[i])
			clear(dK[i])
			clear(dV[i])
		}

		// MLP backward: dx[i] is the gradient of the layer output x2.
		for i := 0; i < T; i++ {
			// x2 = x1 + Wd act
			tensor.MatVecT(lw.wDown, dx[i], dAct)
			tensor.OuterAcc(dx[i], c.act[i], lg.wDown)
			for d := 0; d < cfg.FFN; d++ {
				z := c.gate[i][d]
				sg := sigmoid(z)
				siluZ := z * sg
				dGate[d] = dAct[d] * c.up[i][d] * (sg + z*sg*(1-sg))
				dUp[d] = dAct[d] * siluZ
			}
			tensor.OuterAcc(dGate, c.bNorm[i], lg.wGate)
			tensor.OuterAcc(dUp, c.bNorm[i], lg.wUp)
			tensor.MatVecT(lw.wGate, dGate, dB)
			tensor.MatVecT(lw.wUp, dUp, tmpH)
			tensor.Add(dB, tmpH)
			// x1 receives the residual gradient plus the norm path.
			rmsNormBack(c.x1[i], lw.mlpNorm, dB, dx[i], lg.mlpNorm)
			// dx[i] now holds dL/dx1 (residual added inside rmsNormBack's
			// accumulate-into semantics).
		}

		// Attention backward: dx[i] = dL/dx1; x1 = xIn + Wo attnOut.
		for i := 0; i < T; i++ {
			tensor.MatVecT(lw.wo, dx[i], tmpH) // d attnOut
			tensor.OuterAcc(dx[i], c.attnOut[i], lg.wo)
			for h := 0; h < cfg.Heads; h++ {
				doH := tmpH[h*hd : (h+1)*hd]
				w, dw := c.attW[h][i], ws.dw[:i+1]
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
		dA := ws.dA
		for i := 0; i < T; i++ {
			for h := 0; h < cfg.Heads; h++ {
				tensor.RopeInverse(dAtt[i][h*hd:(h+1)*hd], i, t.m.ropeTheta)
				tensor.RopeInverse(dK[i][h*hd:(h+1)*hd], i, t.m.ropeTheta)
			}
			tensor.OuterAcc(dAtt[i], c.aNorm[i], lg.wq)
			tensor.OuterAcc(dK[i], c.aNorm[i], lg.wk)
			tensor.OuterAcc(dV[i], c.aNorm[i], lg.wv)
			tensor.MatVecT(lw.wq, dAtt[i], dA)
			tensor.MatVecT(lw.wk, dK[i], tmpH)
			tensor.Add(dA, tmpH)
			tensor.MatVecT(lw.wv, dV[i], tmpH)
			tensor.Add(dA, tmpH)
			// xIn receives residual gradient (already in dx[i]) + norm path.
			copy(dxIn[i], dx[i])
			rmsNormBack(c.xIn[i], lw.attnNorm, dA, dxIn[i], lg.attnNorm)
		}
		dx, dxIn = dxIn, dx
	}

	// Embedding gradient.
	for i := 0; i < T; i++ {
		tensor.Add(g.embed.Row(seq[i]), dx[i])
	}
	return loss
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

// addInto sets out = a + b element-wise.
func addInto(out, a, b []float32) {
	for i := range a {
		out[i] = a[i] + b[i]
	}
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
		// The next step's teacher session reuses this one's storage.
		if c, ok := sess.(model.Closer); ok {
			c.Close()
		}
		lastLoss = student.Step(seq)
	}
	return lastLoss
}
