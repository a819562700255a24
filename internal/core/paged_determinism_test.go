package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// Determinism contract for the paged transformer under the full engine:
// the engine's batch-stepping pool (Config.Workers) and the transformer's
// attention split, bounded by GOMAXPROCS, are two independent axes of
// parallelism, and the serving output must be byte-identical across
// every combination, for greedy and stochastic sampling alike, down to
// the bits of every distribution the LLM returns: greedy argmax and most
// stochastic draws absorb a small activation error, the bits do not. The
// 96-token prompt's prefill crosses the split's floor, so at GOMAXPROCS
// 4 its attention items run on four goroutines. Run under -race this
// also proves the split's disjoint-span writes are race-clean while
// multiple engine workers step sessions concurrently.
func TestRunDeterministicAcrossAttnWorkers(t *testing.T) {
	llm := &distRecorder{Model: transformer.New(transformer.Config{
		Name: "paged-llm", Vocab: 64, Hidden: 32, Heads: 4, FFN: 64, Layers: 2, Seed: 1,
	})}
	ssm := transformer.New(transformer.Config{
		Name: "paged-ssm", Vocab: 64, Hidden: 16, Heads: 2, FFN: 32, Layers: 1, Seed: 2,
	})
	long := make([]int, 96)
	for i := range long {
		long[i] = (i * 7) % 64
	}
	reqs := []workload.Request{
		{ID: 0, Prompt: []int{1, 2, 3, 4, 5}, MaxNewTok: 12},
		{ID: 1, Prompt: []int{9, 8, 7}, MaxNewTok: 12},
		{ID: 2, Prompt: []int{5, 5, 6, 6}, MaxNewTok: 12},
		{ID: 3, Prompt: long, MaxNewTok: 12},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	type outcome struct {
		res   []RequestResult
		iters []IterationRecord
		dists []uint64
	}
	for _, sample := range []sampling.Config{sampling.GreedyConfig(), sampling.StochasticConfig()} {
		var base *outcome
		for _, workers := range []int{1, 4} {
			for _, procs := range []int{1, 4} {
				name := fmt.Sprintf("%v/workers=%d/procs=%d", sample.Mode, workers, procs)
				runtime.GOMAXPROCS(procs)
				llm.sums = nil
				res, iters := run(t, Config{
					Mode: TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
					Shape:  speculator.Shape{Expansion: tree.WidthConfig(2)[:3]},
					Sample: sample, Seed: 17,
					MaxBatch: 2, Workers: workers,
				}, reqs)
				slices.Sort(llm.sums)
				if base == nil {
					base = &outcome{res, iters, llm.sums}
					continue
				}
				if !reflect.DeepEqual(base.res, res) {
					t.Fatalf("%s: results differ from workers=1/procs=1", name)
				}
				if !reflect.DeepEqual(base.iters, iters) {
					t.Fatalf("%s: iteration records differ from workers=1/procs=1", name)
				}
				if !slices.Equal(base.dists, llm.sums) {
					t.Fatalf("%s: LLM distributions differ from workers=1/procs=1", name)
				}
			}
		}

		// The paged sessions report their KV footprint, so every
		// iteration record must carry positive per-request cache
		// accounting.
		for i, rec := range base.iters {
			for j, r := range rec.Reqs {
				if r.CacheBytes <= 0 {
					t.Fatalf("%v: iter %d req %d: cache bytes %d, want positive", sample.Mode, i, j, r.CacheBytes)
				}
			}
		}
	}
}

// distRecorder wraps a transformer so that each session hashes the bits
// of every distribution it returns and, at Close, adds its hash to sums.
// A session serves one request, so the sorted sums do not depend on
// which worker stepped which request.
type distRecorder struct {
	*transformer.Model
	mu   sync.Mutex
	sums []uint64 // guarded by mu
}

func (m *distRecorder) NewSession() model.Session {
	return &distSession{Session: m.Model.NewSession().(*transformer.Session), m: m, h: fnv.New64a()}
}

type distSession struct {
	*transformer.Session
	m *distRecorder
	h hash.Hash64
}

func (s *distSession) put(dists ...[]float32) {
	var buf [4]byte
	for _, d := range dists {
		for _, x := range d {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
			s.h.Write(buf[:])
		}
	}
}

func (s *distSession) Prefill(p []model.Token) []float32 {
	d := s.Session.Prefill(p)
	s.put(d)
	return d
}

func (s *distSession) Decode(tok model.Token) []float32 {
	d := s.Session.Decode(tok)
	s.put(d)
	return d
}

func (s *distSession) DecodeTree(t *tree.Tree) [][]float32 {
	d := s.Session.DecodeTree(t)
	s.put(d...)
	return d
}

func (s *distSession) Accept(tokens []model.Token) []float32 {
	d := s.Session.Accept(tokens)
	s.put(d)
	return d
}

func (s *distSession) Close() {
	s.Session.Close()
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	s.m.sums = append(s.m.sums, s.h.Sum64())
}

// The n-gram substrate doesn't implement model.CacheSizer, so its records
// must report 0 bytes — present but inert accounting.
func TestCacheBytesZeroForNonSizerSessions(t *testing.T) {
	llm, _, reqs := testModels(t, 2, 8)
	_, iters := run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig(), Seed: 3}, reqs)
	for i, rec := range iters {
		for _, r := range rec.Reqs {
			if r.CacheBytes != 0 {
				t.Fatalf("iter %d: n-gram session reported %d cache bytes", i, r.CacheBytes)
			}
		}
	}
}
