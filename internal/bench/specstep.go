package bench

import (
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/speculator"
	"specinfer/internal/tree"
	"specinfer/internal/verifier"
)

// specStepRestart is the committed-token count after which
// SpeculationStep retires its request and opens the next, so the
// context stays in the serving range however large b.N grows.
const specStepRestart = 128

// SpeculationStep times one greedy speculation step of one request —
// Speculate on perf-SSM with the paper's ⟨1,1,3,1,1,1,1,1⟩ tree,
// DecodeTree on perf-LLM, VerifyGreedy, and Accept on both — and reports
// allocations per step. Retiring a request and opening the next runs
// with the timer stopped, so allocs/op and B/op are the steady state of
// a step on warm sessions (per-request setup draws from the models'
// pools and is not counted).
func SpeculationStep(b *testing.B) {
	llm, ssm := perfModels()
	shape := speculator.Shape{Expansion: tree.PaperDefault()}
	prompt := perfPrompt(perfPromptLen)
	var (
		sess      model.Session
		spec      *speculator.Speculator
		last      model.Token
		committed int
	)
	open := func() {
		sess = llm.NewSession()
		sess.Prefill(prompt)
		spec = speculator.New(speculator.Config{}, ssm)
		spec.Prefill(prompt)
		last, committed = prompt[len(prompt)-1], 0
	}
	retire := func() {
		sess.(model.Closer).Close()
		spec.Close()
	}
	open()
	defer func() { retire() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := spec.Speculate(last, shape)
		verified := verifier.VerifyGreedy(sess.DecodeTree(tr), tr)
		sess.Accept(verified)
		spec.Accept(verified)
		last = verified[len(verified)-1]
		if committed += len(verified); committed >= specStepRestart {
			b.StopTimer()
			retire()
			open()
			b.StartTimer()
		}
	}
}
