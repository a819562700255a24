package bench

import (
	"runtime"
	"strconv"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// VerifyCostRows are the forwarded tree-row counts K of the verify-cost
// premise curve: 1 (one decode's worth of rows) up to a 63-node tree.
var VerifyCostRows = []int{1, 3, 7, 15, 31, 63}

// VerifyCostModels names the LLMs the premise curve runs on: perf-LLM,
// the e2ebench serving model (compute-bound on a CPU), and perf-LLM-bw,
// whose 46 MB of weights stream from memory like a real LLM's.
var VerifyCostModels = []string{"perf-LLM", "perf-LLM-bw"}

// VerifyCostCtx is the committed context every tree of the premise curve
// attends.
const VerifyCostCtx = 128

// VerifyCostLongCtx is the context of the curve's attention-heavy point,
// e2ebench prefix-fleet's shape: 256-token shared prefixes plus the
// request's own tokens, where attention is most of a verify pass.
const VerifyCostLongCtx = 272

// VerifyCostLongRows are the K of that point: one decode's worth of rows
// and prefix-fleet's 21-node trees.
var VerifyCostLongRows = []int{1, 21}

func verifyCostModel(name string) model.Model {
	if name == "perf-LLM-bw" {
		return bwModel()
	}
	llm, _ := perfModels()
	return llm
}

// verifyCostTree builds a K-node speculation tree with deterministic
// random shape: each node hangs under a uniformly chosen earlier node,
// mixing width and depth the way a best-first grower does.
func verifyCostTree(k, vocab int) *tree.Tree {
	rng := tensor.NewRNG(4242 + uint64(k))
	tr := tree.New(rng.Intn(vocab))
	for tr.NumSpeculated() < k {
		parent := rng.Intn(tr.Len())
		tok := rng.Intn(vocab)
		if tr.ChildWithToken(parent, tok) == -1 {
			tr.AddChild(parent, tok, 1, 0)
		}
	}
	return tr
}

// VerifyCost times one tree-verification pass of K speculated rows over
// a ctx-token context — the LLM half of a speculation step — and reports
// t(K)/t(1), the cost of verifying K rows in decodes. §4.2 of the paper
// assumes it stays near 1 while the pass is memory-bound; on a CPU it
// grows toward K once the rows saturate compute. t1 carries the
// denominator between sub-benchmarks run one after another: the K = 1
// case (first in each row list) records its pass time there per (model,
// context, GOMAXPROCS).
func VerifyCost(modelName string, ctx, k int, t1 map[string]float64) func(b *testing.B) {
	return func(b *testing.B) {
		m := verifyCostModel(modelName)
		s := m.NewSession()
		defer func() {
			if c, ok := s.(model.Closer); ok {
				c.Close()
			}
		}()
		rng := tensor.NewRNG(8181)
		prompt := make([]model.Token, ctx)
		for i := range prompt {
			prompt[i] = rng.Intn(m.VocabSize())
		}
		s.Prefill(prompt)
		tr := verifyCostTree(k, m.VocabSize())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The same tree with no appended nodes is scored in full on
			// every call.
			s.DecodeTree(tr)
		}
		b.StopTimer()
		perPass := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(perPass/float64(k), "ns/row")
		key := modelName + "/" + strconv.Itoa(ctx) + "/" + strconv.Itoa(runtime.GOMAXPROCS(0))
		if k == 1 {
			t1[key] = perPass
		}
		if base := t1[key]; base > 0 {
			b.ReportMetric(perPass/base, "t(K)/t(1)")
		}
	}
}
