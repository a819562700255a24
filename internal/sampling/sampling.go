// Package sampling implements the decoding policies used by SpecInfer:
// greedy decoding and stochastic decoding with temperature, top-k and
// top-p (nucleus) filtering (§7 notes SpecInfer supports all three).
//
// Model sessions return temperature-1 probabilities; a Config transforms
// them into the actual sampling distribution. Verification (MSS) operates
// on these transformed distributions, since Theorem 4.2's equivalence is
// stated w.r.t. the distribution the LLM actually samples from.
package sampling

import (
	"fmt"
	"math"
	"sort"

	"specinfer/internal/tensor"
)

// Mode selects greedy or stochastic decoding.
type Mode int

const (
	// Greedy selects the highest-probability token each step.
	Greedy Mode = iota
	// Stochastic samples from the (transformed) model distribution.
	Stochastic
)

func (m Mode) String() string {
	if m == Greedy {
		return "greedy"
	}
	return "stochastic"
}

// Config is a decoding policy.
type Config struct {
	Mode        Mode
	Temperature float64 // <= 0 or 1 means unmodified
	TopK        int     // 0 disables
	TopP        float64 // 0 or >= 1 disables
}

// Validate returns a non-nil error for nonsensical settings, NaN and
// infinite ones included: flag parsing accepts both, and a NaN temperature
// would otherwise skip the temperature step silently (every comparison
// with NaN is false) and an infinite one would sample uniformly.
func (c Config) Validate() error {
	if math.IsNaN(c.Temperature) || math.IsInf(c.Temperature, 0) {
		return fmt.Errorf("sampling: temperature %v is not finite", c.Temperature)
	}
	if c.Temperature < 0 {
		return fmt.Errorf("sampling: negative temperature %v", c.Temperature)
	}
	if c.TopK < 0 {
		return fmt.Errorf("sampling: negative top-k %d", c.TopK)
	}
	if math.IsNaN(c.TopP) {
		return fmt.Errorf("sampling: top-p is NaN")
	}
	if c.TopP < 0 {
		return fmt.Errorf("sampling: negative top-p %v", c.TopP)
	}
	return nil
}

// Transform converts temperature-1 probabilities into the distribution
// the policy actually samples from. The input is not modified and the
// result is a fresh slice the caller may keep and mutate (MSS and
// traversal verification turn it into the residual in place). For Greedy
// the result is a one-hot distribution on the argmax, which makes greedy
// decoding a degenerate case of the stochastic machinery.
func (c Config) Transform(probs []float32) []float32 {
	return c.transform(make([]float32, len(probs)), probs, tensor.Pow)
}

// transform is Transform writing into dst, of len(probs), and returning it,
// or a fresh slice once a top-k or top-p filter applies. pow raises every
// positive entry to a power in place; Transform passes tensor.Pow, which
// returns math.Pow's bits on its vector kernel.
func (c Config) transform(dst, probs []float32, pow func(x []float32, y float64)) []float32 {
	out := dst
	if c.Mode == Greedy {
		clear(out)
		i, _ := tensor.ArgMax(probs)
		out[i] = 1
		return out
	}
	copy(out, probs)
	if c.Temperature > 0 && c.Temperature != 1 {
		// softmax(logits/T) == p^{1/T} renormalized.
		pow(out, 1.0/c.Temperature)
		tensor.Normalize(out)
	}
	if c.TopK > 0 && c.TopK < len(out) {
		keep := tensor.TopK(out, c.TopK)
		kept := make([]float32, len(out))
		for _, i := range keep {
			kept[i] = out[i]
		}
		out = kept
		tensor.Normalize(out)
	}
	if c.TopP > 0 && c.TopP < 1 {
		out = nucleus(out, c.TopP)
	}
	return out
}

// nucleus keeps the smallest prefix of tokens (by descending probability)
// whose cumulative mass reaches p, then renormalizes.
func nucleus(probs []float32, p float64) []float32 {
	type iv struct {
		i int
		v float32
	}
	order := make([]iv, 0, len(probs))
	for i, v := range probs {
		if v > 0 {
			order = append(order, iv{i, v})
		}
	}
	sort.Slice(order, func(a, b int) bool {
		//lint:ignore floateq exact compare yields a deterministic total order; a tolerance would break transitivity
		if order[a].v != order[b].v {
			return order[a].v > order[b].v
		}
		return order[a].i < order[b].i
	})
	out := make([]float32, len(probs))
	var acc float64
	for _, e := range order {
		out[e.i] = e.v
		acc += float64(e.v)
		if acc >= p {
			break
		}
	}
	tensor.Normalize(out)
	return out
}

// Sample draws a token from the transformed distribution. Greedy
// decoding takes the argmax of probs itself, the token the one-hot
// Transform would give, without building it.
func (c Config) Sample(rng *tensor.RNG, probs []float32) int {
	var buf []float32
	return c.SampleBuf(rng, probs, &buf)
}

// SampleBuf is Sample with *buf as the scratch space for the transformed
// distribution, grown to len(probs) when shorter. A caller that samples
// every step keeps one buffer and, unless a top-k or top-p filter applies,
// allocates nothing. Greedy decoding does not touch it.
func (c Config) SampleBuf(rng *tensor.RNG, probs []float32, buf *[]float32) int {
	if c.Mode == Greedy {
		i, _ := tensor.ArgMax(probs)
		return i
	}
	if len(*buf) < len(probs) {
		*buf = make([]float32, len(probs))
	}
	return rng.SampleCategorical(c.transform((*buf)[:len(probs)], probs, tensor.Pow))
}

// GreedyConfig is the default greedy policy.
func GreedyConfig() Config { return Config{Mode: Greedy} }

// StochasticConfig is plain temperature-1 sampling.
func StochasticConfig() Config { return Config{Mode: Stochastic, Temperature: 1} }
