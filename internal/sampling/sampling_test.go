package sampling

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"specinfer/internal/tensor"
)

func sumf(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s
}

func TestGreedyTransformIsOneHot(t *testing.T) {
	c := GreedyConfig()
	d := c.Transform([]float32{0.1, 0.6, 0.3})
	if d[1] != 1 || d[0] != 0 || d[2] != 0 {
		t.Fatalf("greedy transform = %v", d)
	}
	if c.Sample(tensor.NewRNG(1), []float32{0.1, 0.6, 0.3}) != 1 {
		t.Fatal("greedy sample must return argmax")
	}
}

func TestTemperatureSharpens(t *testing.T) {
	p := []float32{0.6, 0.4}
	cold := Config{Mode: Stochastic, Temperature: 0.5}.Transform(p)
	hot := Config{Mode: Stochastic, Temperature: 2.0}.Transform(p)
	if cold[0] <= p[0] {
		t.Fatalf("T<1 must sharpen: %v", cold)
	}
	if hot[0] >= p[0] {
		t.Fatalf("T>1 must flatten: %v", hot)
	}
	// T=0.5 on {0.6,0.4}: 0.36/0.52 ≈ 0.6923
	if math.Abs(float64(cold[0])-0.36/0.52) > 1e-4 {
		t.Fatalf("cold[0] = %v", cold[0])
	}
}

func TestTopKTransform(t *testing.T) {
	p := []float32{0.1, 0.5, 0.15, 0.25}
	d := Config{Mode: Stochastic, TopK: 2}.Transform(p)
	if d[0] != 0 || d[2] != 0 {
		t.Fatalf("top-2 must zero the tail: %v", d)
	}
	if math.Abs(float64(d[1])-0.5/0.75) > 1e-5 || math.Abs(float64(d[3])-0.25/0.75) > 1e-5 {
		t.Fatalf("top-2 renormalization wrong: %v", d)
	}
}

func TestTopPTransform(t *testing.T) {
	p := []float32{0.5, 0.3, 0.15, 0.05}
	d := Config{Mode: Stochastic, TopP: 0.7}.Transform(p)
	// Cumulative: 0.5, 0.8 — the nucleus is {0, 1}.
	if d[2] != 0 || d[3] != 0 {
		t.Fatalf("nucleus must drop the tail: %v", d)
	}
	if math.Abs(float64(d[0])-0.5/0.8) > 1e-5 {
		t.Fatalf("nucleus renorm wrong: %v", d)
	}
}

func TestTransformIsDistributionProperty(t *testing.T) {
	f := func(seed uint64, tk uint8, rawT, rawP float64) bool {
		rng := tensor.NewRNG(seed)
		p := make([]float32, 12)
		for i := range p {
			p[i] = float32(rng.Float64())
		}
		tensor.Normalize(p)
		c := Config{
			Mode:        Stochastic,
			Temperature: math.Abs(math.Mod(rawT, 3)),
			TopK:        int(tk % 14),
			TopP:        math.Abs(math.Mod(rawP, 1)),
		}
		d := c.Transform(p)
		for _, v := range d {
			if v < 0 || math.IsNaN(float64(v)) {
				return false
			}
		}
		return math.Abs(sumf(d)-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformDoesNotMutateInput(t *testing.T) {
	p := []float32{0.25, 0.25, 0.5}
	orig := append([]float32(nil), p...)
	Config{Mode: Stochastic, Temperature: 0.3, TopK: 2, TopP: 0.8}.Transform(p)
	for i := range p {
		if p[i] != orig[i] {
			t.Fatal("Transform mutated its input")
		}
	}
}

func TestStochasticSampleFrequencies(t *testing.T) {
	c := StochasticConfig()
	rng := tensor.NewRNG(2)
	p := []float32{0.2, 0.8}
	n := 50000
	ones := 0
	for i := 0; i < n; i++ {
		if c.Sample(rng, p) == 1 {
			ones++
		}
	}
	got := float64(ones) / float64(n)
	if math.Abs(got-0.8) > 0.01 {
		t.Fatalf("sample frequency %v, want 0.8", got)
	}
}

func TestValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default stochastic", StochasticConfig(), true},
		{"greedy", GreedyConfig(), true},
		{"temperature 0.7, top-k, top-p", Config{Mode: Stochastic, Temperature: 0.7, TopK: 20, TopP: 0.9}, true},
		{"top-p +Inf disables", Config{Mode: Stochastic, TopP: inf}, true},
		{"negative temperature", Config{Temperature: -1}, false},
		{"NaN temperature", Config{Mode: Stochastic, Temperature: nan}, false},
		{"+Inf temperature", Config{Mode: Stochastic, Temperature: inf}, false},
		{"-Inf temperature", Config{Mode: Stochastic, Temperature: -inf}, false},
		{"negative top-k", Config{TopK: -1}, false},
		{"negative top-p", Config{TopP: -0.1}, false},
		{"NaN top-p", Config{Mode: Stochastic, TopP: nan}, false},
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

// powScalar is the temperature step as a plain math.Pow loop: the oracle
// for Transform's vector kernel and the benchmark's scalar side.
func powScalar(x []float32, y float64) {
	for i, p := range x {
		if p > 0 {
			x[i] = float32(math.Pow(float64(p), y))
		}
	}
}

// testDist returns a seeded softmax distribution over n tokens, the shape
// a model session returns.
func testDist(n int, seed uint64) []float32 {
	rng := tensor.NewRNG(seed)
	p := make([]float32, n)
	for i := range p {
		p[i] = float32(rng.NormFloat64() * 3)
	}
	tensor.Softmax(p)
	return p
}

// TestTransformMatchesScalarPow holds Transform, on whatever pow kernel
// this build runs, to the math.Pow loop bit for bit, for every temperature
// the kernel serves and the scalar-only ones, with and without filters.
func TestTransformMatchesScalarPow(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 64, 255, 256, 1000} {
		p := testDist(n, uint64(n))
		p[n/2] = 0 // a zero entry stays zero
		for _, temp := range []float64{0.03, 0.05, 0.1, 0.3, 0.5, 0.6, 0.7, 0.9, 1, 1.5, 2, 3, 100} {
			for _, c := range []Config{
				{Mode: Stochastic, Temperature: temp},
				{Mode: Stochastic, Temperature: temp, TopK: 20},
				{Mode: Stochastic, Temperature: temp, TopP: 0.9},
			} {
				got := c.Transform(p)
				want := c.transform(make([]float32, n), p, powScalar)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("n=%d %+v: [%d] = %v, math.Pow loop gives %v", n, c, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSampleBufMatchesSample: the buffered sampler draws the same tokens
// from the same RNG stream as Sample, allocates nothing once its buffer is
// sized, and greedy sampling allocates nothing at all.
func TestSampleBufMatchesSample(t *testing.T) {
	p := testDist(256, 5)
	for _, c := range []Config{GreedyConfig(), StochasticConfig(), {Mode: Stochastic, Temperature: 0.7}, {Mode: Stochastic, Temperature: 0.7, TopK: 20}} {
		r1, r2 := tensor.NewRNG(9), tensor.NewRNG(9)
		var buf []float32
		for i := 0; i < 200; i++ {
			if a, b := c.Sample(r1, p), c.SampleBuf(r2, p, &buf); a != b {
				t.Fatalf("%+v draw %d: Sample %d, SampleBuf %d", c, i, a, b)
			}
		}
	}
	rng := tensor.NewRNG(1)
	var buf []float32
	for name, f := range map[string]func(){
		"greedy Sample":         func() { GreedyConfig().Sample(rng, p) },
		"temperature SampleBuf": func() { Config{Mode: Stochastic, Temperature: 0.7}.SampleBuf(rng, p, &buf) },
	} {
		f()
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %v times per call", name, allocs)
		}
	}
}

// transformSink keeps BenchmarkTransform's results live.
var transformSink []float32

// BenchmarkTransform times Transform at serving shapes, with its
// temperature step on the math.Pow loop (scalar) and on tensor.Pow
// (kernel, where this build and CPU have it).
func BenchmarkTransform(b *testing.B) {
	for _, vocab := range []int{256, 32000} {
		p := testDist(vocab, 1)
		for _, temp := range []float64{0.7, 1.5} {
			c := Config{Mode: Stochastic, Temperature: temp}
			for _, side := range []struct {
				name string
				pow  func([]float32, float64)
			}{{"scalar", powScalar}, {"kernel", tensor.Pow}} {
				b.Run(fmt.Sprintf("vocab=%d/T=%v/%s", vocab, temp, side.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						transformSink = c.transform(make([]float32, vocab), p, side.pow)
					}
				})
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if Greedy.String() != "greedy" || Stochastic.String() != "stochastic" {
		t.Fatal("mode strings wrong")
	}
}
