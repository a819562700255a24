// Package workload generates the synthetic language, corpora, prompt
// datasets and request traces used by the experiments.
//
// The ground truth is a seeded SECOND-order Markov process designed so
// that the capacity gap between the reproduction's "LLM" and "SSM" mirrors
// the paper's: every token b owns a small candidate pool of successors
// with Zipfian base weights; each context pair (a, b) selects a subset of
// that pool (preferring high-weight candidates) and re-weights it with a
// per-context Zipf skew. A model that conditions on the full pair (the
// order-3 n-gram "LLM") can learn each context's exact distribution; a
// model that sees only the last token (the order-2 n-gram "SSM") can at
// best learn the pool aggregate — a structural, not statistical,
// misalignment, exactly the "model capacity gap" the paper attributes to
// SSMs (§1). The pool construction keeps the SSM's top-k covering most of
// the LLM's sampling mass even when its top-1 misses, which is the
// observation (paper Table 1) that motivates tree speculation.
//
// Per-dataset knobs (pool size, branch, skew) stand in for the paper's
// five prompt datasets, whose only role in the evaluation is to modulate
// acceptance rates by a few points. They were calibrated once against
// Table 1 and are held fixed across every experiment.
package workload

import (
	"fmt"
	"math"
	"strings"

	"specinfer/internal/tensor"
)

// Dataset describes one synthetic prompt dataset.
type Dataset struct {
	Name  string
	Vocab int
	// Pool is the number of candidate successors each token owns.
	Pool int
	// Branch is the number of successors each (a, b) context selects
	// from b's pool.
	Branch int
	// PoolZipf is the skew of the pool's base weights (drives how
	// strongly contexts prefer the pool's top candidates).
	PoolZipf float64
	// ZipfS is the mean per-context skew; larger = lower entropy.
	ZipfS float64
	// ZipfVar makes contexts heterogeneous: each context's skew is drawn
	// uniformly from ZipfS ± ZipfVar. Mixing predictable and near-tie
	// contexts reproduces Table 1's pattern, where greedy verification
	// fails on ties that barely dent stochastic mass coverage.
	ZipfVar float64
	// Swap is the probability that a context inverts its top-2 candidate
	// weights. A pool-aggregate model (the SSM) cannot see per-context
	// inversions, so its argmax misses exactly there — while its top-k
	// still covers the mass. This is the lever that separates the paper's
	// greedy top-1 (~60-70%) from its stochastic top-5 (~95-97%).
	Swap float64
	Seed uint64
}

// Datasets returns the five dataset analogues in the paper's order. The
// entropy ordering mirrors the paper's acceptance ordering: CIP and CP
// are the most predictable, WebQA and PIQA the least.
func Datasets() []Dataset {
	return []Dataset{
		{Name: "Alpaca", Vocab: 192, Pool: 10, Branch: 6, PoolZipf: 2.6, ZipfS: 2.30, ZipfVar: 0.9, Swap: 0.55, Seed: 1001},
		{Name: "CP", Vocab: 192, Pool: 10, Branch: 6, PoolZipf: 2.6, ZipfS: 2.35, ZipfVar: 0.9, Swap: 0.53, Seed: 1002},
		{Name: "WebQA", Vocab: 192, Pool: 11, Branch: 7, PoolZipf: 2.5, ZipfS: 2.15, ZipfVar: 0.9, Swap: 0.58, Seed: 1003},
		{Name: "CIP", Vocab: 192, Pool: 10, Branch: 6, PoolZipf: 2.6, ZipfS: 2.40, ZipfVar: 0.9, Swap: 0.52, Seed: 1004},
		{Name: "PIQA", Vocab: 192, Pool: 11, Branch: 7, PoolZipf: 2.5, ZipfS: 2.20, ZipfVar: 0.9, Swap: 0.57, Seed: 1005},
	}
}

// LookupDataset returns the named dataset, or an error naming the valid
// choices. CLI front-ends should use it on user-supplied names so a typo
// produces a clean error instead of a panic.
func LookupDataset(name string) (Dataset, error) {
	all := Datasets()
	names := make([]string, len(all))
	for i, d := range all {
		if d.Name == name {
			return d, nil
		}
		names[i] = d.Name
	}
	return Dataset{}, fmt.Errorf("workload: unknown dataset %q (valid: %s)", name, strings.Join(names, "|"))
}

// DatasetByName returns the named dataset, or panics. It is the wrapper
// for internal callers holding trusted names; user input goes through
// LookupDataset.
func DatasetByName(name string) Dataset {
	d, err := LookupDataset(name)
	if err != nil {
		panic("workload: unknown dataset " + name)
	}
	return d
}

// Markov is the ground-truth text process. Successor distributions are
// generated lazily and deterministically from the dataset seed, so the
// "language" is unbounded but reproducible.
type Markov struct {
	d     Dataset
	pools map[int]pool
	succs map[uint64]succ
}

type pool struct {
	toks    []int
	weights []float32
}

type succ struct {
	toks    []int
	weights []float32
}

// NewMarkov builds the generator for a dataset.
func NewMarkov(d Dataset) *Markov {
	if d.Vocab < 8 || d.Pool < 2 || d.Branch < 1 || d.Branch > d.Pool || d.Pool > d.Vocab {
		panic("workload: bad dataset parameters")
	}
	return &Markov{d: d, pools: make(map[int]pool), succs: make(map[uint64]succ)}
}

// Dataset returns the generator's dataset parameters.
func (m *Markov) Dataset() Dataset { return m.d }

func hash2(seed uint64, a, b int) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	h = (h ^ uint64(a+1)) * 0x100000001b3
	h = (h ^ uint64(b+1)) * 0x100000001b3
	return h * 0x2545f4914f6cdd1d
}

// poolOf returns token b's candidate pool.
func (m *Markov) poolOf(b int) pool {
	if p, ok := m.pools[b]; ok {
		return p
	}
	rng := tensor.NewRNG(hash2(m.d.Seed, 0, b))
	p := pool{toks: make([]int, m.d.Pool), weights: make([]float32, m.d.Pool)}
	seen := make(map[int]bool, m.d.Pool)
	for i := 0; i < m.d.Pool; i++ {
		t := rng.Intn(m.d.Vocab)
		for seen[t] {
			t = rng.Intn(m.d.Vocab)
		}
		seen[t] = true
		p.toks[i] = t
		p.weights[i] = float32(math.Pow(float64(i+1), -m.d.PoolZipf))
	}
	tensor.Normalize(p.weights)
	m.pools[b] = p
	return p
}

// successors returns the distribution of context (a, b): Branch tokens
// drawn from b's pool without replacement proportionally to the pool
// weights (so context ranks correlate with pool ranks), re-weighted with
// the context's own Zipf skew.
func (m *Markov) successors(a, b int) succ {
	h := hash2(m.d.Seed, a+7, b)
	if s, ok := m.succs[h]; ok {
		return s
	}
	rng := tensor.NewRNG(h)
	p := m.poolOf(b)
	remaining := append([]float32(nil), p.weights...)
	s := succ{toks: make([]int, m.d.Branch), weights: make([]float32, m.d.Branch)}
	skew := m.d.ZipfS + (rng.Float64()*2-1)*m.d.ZipfVar
	for i := 0; i < m.d.Branch; i++ {
		j := rng.SampleCategorical(remaining)
		remaining[j] = 0
		s.toks[i] = p.toks[j]
		s.weights[i] = float32(math.Pow(float64(i+1), -skew))
	}
	if m.d.Branch >= 3 && rng.Float64() < m.d.Swap {
		// Permute the top-3 weights (never the identity), so a
		// pool-aggregate model misranks the head of the distribution
		// here — recoverable by a wider token tree, not by a deeper one.
		w0, w1, w2 := s.weights[0], s.weights[1], s.weights[2]
		switch rng.Intn(3) {
		case 0:
			s.weights[0], s.weights[1] = w1, w0
		case 1:
			s.weights[0], s.weights[1], s.weights[2] = w1, w2, w0
		default:
			s.weights[0], s.weights[1], s.weights[2] = w2, w0, w1
		}
	} else if m.d.Branch == 2 && rng.Float64() < m.d.Swap {
		s.weights[0], s.weights[1] = s.weights[1], s.weights[0]
	}
	tensor.Normalize(s.weights)
	m.succs[h] = s
	return s
}

// Dist returns the ground-truth next-token distribution after history.
func (m *Markov) Dist(history []int) []float32 {
	a, b := 0, 0
	switch n := len(history); {
	case n >= 2:
		a, b = history[n-2], history[n-1]
	case n == 1:
		b = history[0]
	}
	s := m.successors(a, b)
	p := make([]float32, m.d.Vocab)
	for i, t := range s.toks {
		p[t] += s.weights[i]
	}
	return p
}

// Generate samples a sequence of the given length from a random seed
// context.
func (m *Markov) Generate(rng *tensor.RNG, length int) []int {
	seq := make([]int, 0, length)
	a, b := rng.Intn(m.d.Vocab), rng.Intn(m.d.Vocab)
	for len(seq) < length {
		s := m.successors(a, b)
		t := s.toks[rng.SampleCategorical(s.weights)]
		seq = append(seq, t)
		a, b = b, t
	}
	return seq
}

// Corpus samples n sequences of the given length. Used to train n-gram
// LLMs/SSMs (the stand-in for pre-training on shared data, §2 of the
// paper: OPT-125M and OPT-175B are pre-trained on the same datasets).
func (m *Markov) Corpus(rng *tensor.RNG, n, length int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = m.Generate(rng, length)
	}
	return out
}

// Prompts samples n prompts of the given length from the process; these
// play the role of the dataset's questions/instructions.
func (m *Markov) Prompts(rng *tensor.RNG, n, length int) [][]int {
	return m.Corpus(rng, n, length)
}

// Request is one serving request in a trace.
type Request struct {
	ID        int
	Prompt    []int
	MaxNewTok int
	// Group is the shared-prefix group the request belongs to (0 for
	// traces without prefix structure): requests with the same Group
	// open with the same prompt prefix. Routing benchmarks use it to
	// check that affinity placement keeps a group on one replica.
	Group int
	// Guest marks a request served off its prefix-affine replica as
	// overflow: it adopts any prefix already cached — in its affine
	// replica's cache when placed by core.Engine.SubmitGuest, else in
	// its own replica's — but inserts none of its own, so each
	// replica's prefix cache keeps to its own ring arc. The router sets
	// it; traces leave it false.
	Guest bool
}

// Trace builds a request trace of n requests with fixed prompt length and
// generation budget, mirroring §6.2's setup (up to 128 new tokens).
func (m *Markov) Trace(rng *tensor.RNG, n, promptLen, maxNew int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{ID: i, Prompt: m.Generate(rng, promptLen), MaxNewTok: maxNew}
	}
	return reqs
}

// BurstyTrace builds a request trace plus its arrival schedule in the
// two-phase rhythm of interactive serving traffic: each of `bursts`
// rounds opens with `burstSize` simultaneous arrivals — the admission
// queue piles up and verification runs batch-contended — and then, once
// `settle` seconds have passed, trickles `trickle` solitary requests
// `gap` seconds apart, during which the batch runs underfull. This is
// the trace shape the per-iteration speculation policy exists for: the
// same serving run alternates between a throughput-bound and a
// latency-bound regime, so no single static tree shape is right for
// both. Arrivals are in seconds, arrivals[i] belonging to reqs[i];
// Group records each request's burst round.
func (m *Markov) BurstyTrace(rng *tensor.RNG, bursts, burstSize, trickle, promptLen, maxNew int, settle, gap float64) ([]Request, []float64) {
	if bursts < 1 || burstSize < 1 {
		panic("workload: BurstyTrace needs at least one burst of at least one request")
	}
	if settle < 0 || gap < 0 {
		panic("workload: BurstyTrace needs non-negative settle and gap times")
	}
	var reqs []Request
	var arrivals []float64
	t := 0.0
	for b := 0; b < bursts; b++ {
		for i := 0; i < burstSize; i++ {
			reqs = append(reqs, Request{
				ID: len(reqs), Prompt: m.Generate(rng, promptLen), MaxNewTok: maxNew, Group: b,
			})
			arrivals = append(arrivals, t)
		}
		t += settle
		for i := 0; i < trickle; i++ {
			reqs = append(reqs, Request{
				ID: len(reqs), Prompt: m.Generate(rng, promptLen), MaxNewTok: maxNew, Group: b,
			})
			arrivals = append(arrivals, t)
			t += gap
		}
	}
	return reqs, arrivals
}

// SharedPrefixTrace builds a trace of n requests whose prompts all open
// with the SAME prefixLen-token prefix and diverge into per-request
// suffixLen-token continuations — the system-prompt / few-shot-template
// traffic shape that motivates cross-request prefix KV caching. The
// suffixes continue the Markov process from the prefix's final context
// (each from an independent sampling path), so the prompts remain
// in-distribution for models trained on the process.
func (m *Markov) SharedPrefixTrace(rng *tensor.RNG, n, prefixLen, suffixLen, maxNew int) []Request {
	return m.GroupedSharedPrefixTrace(rng, n, 1, prefixLen, suffixLen, maxNew, 1)
}

// GroupedSharedPrefixTrace generalizes SharedPrefixTrace to `groups`
// distinct shared prefixes — the multi-tenant shape the replica router
// is built for: several system prompts in concurrent use, each shared
// by many requests. Group g's traffic share is proportional to mix^g
// (mix in (0, 1]; 1 means uniform, smaller values skew traffic toward
// the low-numbered groups the way production system prompts are
// head-heavy). Request-to-group assignment is deterministic in the
// request index — smooth weighted round-robin, consuming no RNG — so
// the same (n, groups, mix) always yields the same assignment and the
// groups stay interleaved along the trace instead of arriving in runs.
// Each request's Group field records its assignment.
func (m *Markov) GroupedSharedPrefixTrace(rng *tensor.RNG, n, groups, prefixLen, suffixLen, maxNew int, mix float64) []Request {
	if prefixLen < 1 || suffixLen < 1 {
		panic("workload: GroupedSharedPrefixTrace needs positive prefix and suffix lengths")
	}
	if groups < 1 {
		panic("workload: GroupedSharedPrefixTrace needs at least one group")
	}
	if mix <= 0 || mix > 1 {
		panic(fmt.Sprintf("workload: mixing ratio %v outside (0, 1]", mix))
	}
	type group struct {
		prefix []int
		a, b   int // Markov context at the prefix boundary
	}
	gs := make([]group, groups)
	for g := range gs {
		prefix := m.Generate(rng, prefixLen)
		a, b := 0, prefix[prefixLen-1]
		if prefixLen >= 2 {
			a = prefix[prefixLen-2]
		}
		gs[g] = group{prefix: prefix, a: a, b: b}
	}
	weights := make([]float64, groups)
	current := make([]float64, groups)
	var total float64
	for g := range weights {
		weights[g] = math.Pow(mix, float64(g))
		total += weights[g]
	}
	reqs := make([]Request, n)
	for i := range reqs {
		// Smooth weighted round-robin: every group accrues its weight,
		// the largest accumulator wins and pays back the total. Ties
		// break toward the lowest group index, keeping the schedule a
		// pure function of (groups, mix, i).
		pick := 0
		for g := range current {
			current[g] += weights[g]
			if current[g] > current[pick] {
				pick = g
			}
		}
		current[pick] -= total
		gr := gs[pick]
		prompt := make([]int, prefixLen, prefixLen+suffixLen)
		copy(prompt, gr.prefix)
		ca, cb := gr.a, gr.b
		for len(prompt) < prefixLen+suffixLen {
			s := m.successors(ca, cb)
			t := s.toks[rng.SampleCategorical(s.weights)]
			prompt = append(prompt, t)
			ca, cb = cb, t
		}
		reqs[i] = Request{ID: i, Prompt: prompt, MaxNewTok: maxNew, Group: pick}
	}
	return reqs
}
