package bench

// Accept-length scenarios (PR 9): mean speculated tokens accepted per
// verification, MSS vs leaf-to-root traversal verification, replayed on
// IDENTICAL speculation instances. Both verifiers are provably lossless,
// so the only observable difference is how far down the speculated tree
// each one gets per LLM pass — the quantity that converts SSM alignment
// (Table 1) into end-to-end speedup (Figure 6).
//
// The comparison is paired at the instance level: a fixed stream of
// (tree, LLM dists) instances is generated once per dataset by running
// the calibrated speculator under the Table-1 alignment substrate, with
// request state always advanced by an INDEPENDENT fixed-seed MSS stream —
// never by the verifier under measurement — so both scenarios replay
// byte-identical instances, and verification i uses the same RNG seed in
// both. The reported "accept-len" metric is computed over the full fixed
// evaluation grid (instances x seeds) rather than over b.N timed ops, so
// it is deterministic, host-independent arithmetic, not
// benchtime-dependent sampling.

import (
	"fmt"
	"sync"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
	"specinfer/internal/verifier"
	"specinfer/internal/workload"
)

const (
	// acceptLenInstanceCount is how many speculation instances each
	// dataset's fixed stream holds; acceptLenEvalSeeds how many verifier
	// RNG seeds each instance is evaluated under for the accept-len
	// metric (instances x seeds verifications per reported mean).
	acceptLenInstanceCount = 48
	acceptLenEvalSeeds     = 8
	// acceptLenRestart bounds the committed context: the driving request
	// is restarted from a fresh prompt after this many committed tokens.
	acceptLenRestart = 24
)

// acceptLenInstance is one verification problem: a speculated tree and
// the LLM's distribution at every tree node.
type acceptLenInstance struct {
	tr    *tree.Tree
	dists [][]float32
}

var (
	acceptLenMu    sync.Mutex
	acceptLenCache = map[string][]acceptLenInstance{} // guarded by acceptLenMu
)

// acceptLenInstances returns the dataset's fixed instance stream,
// generating it on first use. Generation runs the calibrated speculator
// (stochastic policy, SampleK expansion, paper-default configuration)
// over Markov prompts and advances the committed sequence with a
// dedicated MSS stream, so the stream is a deterministic function of the
// dataset alone.
func acceptLenInstances(ds workload.Dataset) []acceptLenInstance {
	acceptLenMu.Lock()
	defer acceptLenMu.Unlock()
	if inst, ok := acceptLenCache[ds.Name]; ok {
		return inst
	}

	p := Models(ds)
	policy := sampling.StochasticConfig()
	seed := calib.Seed ^ ds.Seed ^ 0x5ca1ab1e
	advance := tensor.NewRNG(seed) // state advancement only, never measured
	promptRNG := tensor.NewRNG(seed ^ 0xfeed)

	var (
		instances []acceptLenInstance
		llmSess   model.Session
		spec      *speculator.Speculator
		last      model.Token
		committed int
	)
	restart := func() {
		prompt := p.Markov.Generate(promptRNG, calib.PromptLen)
		llmSess = p.LLM.NewSession()
		llmSess.Prefill(prompt)
		spec = speculator.New(speculator.Config{
			Sample: policy, Seed: seed ^ uint64(len(instances)),
		}, p.SSM)
		spec.Prefill(prompt)
		last = prompt[len(prompt)-1]
		committed = 0
	}
	restart()
	for len(instances) < acceptLenInstanceCount {
		tr := spec.Speculate(last, speculator.Shape{Expansion: tree.PaperDefault()})
		// The instance outlives the session's next Accept, which frees
		// the distributions DecodeTree returned: keep a copy.
		dists := make([][]float32, 0, tr.Len())
		for _, d := range llmSess.DecodeTree(tr) {
			dists = append(dists, append([]float32(nil), d...))
		}
		instances = append(instances, acceptLenInstance{tr: tr, dists: dists})

		verified, err := verifier.VerifyStochastic(dists, tr, policy, advance)
		if err != nil {
			panic(fmt.Sprintf("bench: accept-len instance generation: %v", err))
		}
		llmSess.Accept(verified)
		spec.Accept(verified)
		last = verified[len(verified)-1]
		if committed += len(verified); committed >= acceptLenRestart {
			restart()
		}
	}
	acceptLenCache[ds.Name] = instances
	return instances
}

// acceptLenVerify runs the named verifier on one instance.
func acceptLenVerify(name string, inst acceptLenInstance, policy sampling.Config, rng *tensor.RNG) ([]model.Token, error) {
	switch name {
	case "mss":
		return verifier.VerifyStochastic(inst.dists, inst.tr, policy, rng)
	case "traversal":
		return verifier.VerifyTraversal(inst.dists, inst.tr, policy, rng)
	}
	panic("bench: unknown accept-len verifier " + name)
}

// acceptLenSeed derives the verifier RNG seed for evaluation cell (i, s).
// Shared by both scenarios so the comparison is paired draw by draw.
func acceptLenSeed(ds workload.Dataset, i, s int) uint64 {
	return (calib.Seed ^ ds.Seed ^ uint64(i)*0x9e3779b97f4a7c15) + uint64(s)*0x2545f4914f6cdd1d + 1
}

// AcceptLenMean evaluates the named verifier's mean accepted speculated
// tokens per verification over the dataset's full fixed evaluation grid.
// Deterministic: same dataset and verifier always yield the same mean.
func AcceptLenMean(ds workload.Dataset, verifierName string) float64 {
	instances := acceptLenInstances(ds)
	policy := sampling.StochasticConfig()
	accepted, verifs := 0, 0
	for i, inst := range instances {
		for s := 0; s < acceptLenEvalSeeds; s++ {
			out, err := acceptLenVerify(verifierName, inst, policy, tensor.NewRNG(acceptLenSeed(ds, i, s)))
			if err != nil {
				panic(fmt.Sprintf("bench: accept-len eval: %v", err))
			}
			accepted += len(out) - 1 // the final token is the bonus, not speculation
			verifs++
		}
	}
	return float64(accepted) / float64(verifs)
}

// acceptLenBench measures one verifier on one dataset: ns/op over the
// instance stream (each op verifies the next instance round-robin) plus
// the deterministic accept-len metric from the fixed evaluation grid.
func acceptLenBench(ds workload.Dataset, verifierName string) func(*testing.B) {
	return func(b *testing.B) {
		instances := acceptLenInstances(ds)
		mean := AcceptLenMean(ds, verifierName)
		policy := sampling.StochasticConfig()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst := instances[i%len(instances)]
			if _, err := acceptLenVerify(verifierName, inst, policy, tensor.NewRNG(acceptLenSeed(ds, i%len(instances), i/len(instances)))); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(mean, "accept-len")
	}
}

// AcceptLenSuite returns the accept-length scenario pairs, one
// {traversal, mss} pair per Table-1 dataset. The scenarios' payload is
// the deterministic accept-len metric (and the paired ns/op); instance
// generation is deferred to Run so building the suite stays cheap for
// filtered runs.
func AcceptLenSuite() []PerfBenchmark {
	var out []PerfBenchmark
	for _, ds := range Datasets() {
		for _, v := range []string{"traversal", "mss"} {
			out = append(out, PerfBenchmark{
				Name: fmt.Sprintf("verifier/accept-length/%s/%s", ds.Name, v),
				Run:  acceptLenBench(ds, v),
			})
		}
	}
	return out
}
