package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatVec(t *testing.T) {
	w := NewMatrix(2, 3)
	copy(w.Data, []float32{1, 2, 3, 4, 5, 6})
	x := []float32{1, 0, -1}
	out := make([]float32, 2)
	MatVec(w, x, out)
	if out[0] != -2 || out[1] != -2 {
		t.Fatalf("MatVec = %v, want [-2 -2]", out)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float32, len(raw))
		for i, v := range raw {
			// Clamp to a sane logit range.
			x[i] = float32(math.Mod(float64(v), 30))
		}
		Softmax(x)
		var sum float64
		for _, v := range x {
			if v < 0 || math.IsNaN(float64(v)) {
				return false
			}
			sum += float64(v)
		}
		return almostEq(sum, 1, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxMaskedEntries(t *testing.T) {
	x := []float32{1, NegInf, 2, NegInf}
	Softmax(x)
	if x[1] != 0 || x[3] != 0 {
		t.Fatalf("masked entries must be exactly 0, got %v", x)
	}
	if !almostEq(float64(x[0]+x[2]), 1, 1e-6) {
		t.Fatalf("unmasked entries must sum to 1, got %v", x)
	}
	if x[2] <= x[0] {
		t.Fatalf("softmax must preserve order, got %v", x)
	}
}

func TestSoftmaxAllMasked(t *testing.T) {
	x := []float32{NegInf, NegInf}
	Softmax(x)
	if x[0] != 0.5 || x[1] != 0.5 {
		t.Fatalf("all-masked softmax should be uniform, got %v", x)
	}
}

func TestRMSNorm(t *testing.T) {
	x := []float32{3, 4}
	gain := []float32{1, 1}
	out := make([]float32, 2)
	RMSNorm(x, gain, out, 0)
	// rms = sqrt((9+16)/2) = sqrt(12.5)
	rms := math.Sqrt(12.5)
	if !almostEq(float64(out[0]), 3/rms, 1e-5) || !almostEq(float64(out[1]), 4/rms, 1e-5) {
		t.Fatalf("RMSNorm = %v", out)
	}
}

func TestRopePreservesNorm(t *testing.T) {
	f := func(seed uint64, pos uint8) bool {
		rng := NewRNG(seed)
		v := make([]float32, 16)
		rng.FillNormal(v, 1)
		var before float64
		for _, x := range v {
			before += float64(x) * float64(x)
		}
		Rope(v, int(pos), 10000)
		var after float64
		for _, x := range v {
			after += float64(x) * float64(x)
		}
		return almostEq(before, after, 1e-3*(before+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRopeZeroPositionIsIdentity(t *testing.T) {
	v := []float32{1, 2, 3, 4}
	want := append([]float32(nil), v...)
	Rope(v, 0, 10000)
	for i := range v {
		if !almostEq(float64(v[i]), float64(want[i]), 1e-6) {
			t.Fatalf("Rope(pos=0) changed vector: %v", v)
		}
	}
}

func TestRopeRelativePositions(t *testing.T) {
	// The defining property of RoPE: dot(rope(q,m), rope(k,n)) depends only
	// on m-n. Check dot products match for equal offsets.
	rng := NewRNG(3)
	q := make([]float32, 8)
	k := make([]float32, 8)
	rng.FillNormal(q, 1)
	rng.FillNormal(k, 1)
	dotAt := func(m, n int) float64 {
		qc := append([]float32(nil), q...)
		kc := append([]float32(nil), k...)
		Rope(qc, m, 10000)
		Rope(kc, n, 10000)
		return float64(Dot(qc, kc))
	}
	if !almostEq(dotAt(5, 3), dotAt(9, 7), 1e-4) {
		t.Fatalf("RoPE relative property violated: %v vs %v", dotAt(5, 3), dotAt(9, 7))
	}
}

func TestArgMax(t *testing.T) {
	i, v := ArgMax([]float32{-1, 5, 3, 5})
	if i != 1 || v != 5 {
		t.Fatalf("ArgMax = (%d,%v), want (1,5) with first-tie", i, v)
	}
}

func TestTopK(t *testing.T) {
	x := []float32{0.1, 0.9, 0.3, 0.7, 0.5}
	got := TopK(x, 3)
	want := []int{1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", got, want)
		}
	}
	if len(TopK(x, 99)) != len(x) {
		t.Fatal("TopK must clamp k to len(x)")
	}
	if TopK(x, 0) != nil {
		t.Fatal("TopK(_, 0) must be nil")
	}
}

func TestTopKDescendingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		x := make([]float32, 20)
		rng.FillNormal(x, 1)
		idx := TopK(x, 7)
		for i := 1; i < len(idx); i++ {
			if x[idx[i-1]] < x[idx[i]] {
				return false
			}
		}
		seen := map[int]bool{}
		for _, j := range idx {
			if seen[j] {
				return false
			}
			seen[j] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	x := []float32{2, 6}
	Normalize(x)
	if !almostEq(float64(x[0]), 0.25, 1e-6) || !almostEq(float64(x[1]), 0.75, 1e-6) {
		t.Fatalf("Normalize = %v", x)
	}
	z := []float32{0, 0, 0, 0}
	Normalize(z)
	for _, v := range z {
		if v != 0.25 {
			t.Fatalf("Normalize of zero vector should be uniform, got %v", z)
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic for equal seeds")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(5)
	n := 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean too far from 0: %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance too far from 1: %v", variance)
	}
}

func TestSampleCategorical(t *testing.T) {
	r := NewRNG(11)
	p := []float32{0.1, 0, 0.7, 0.2}
	counts := make([]int, 4)
	n := 100000
	for i := 0; i < n; i++ {
		counts[r.SampleCategorical(p)]++
	}
	if counts[1] != 0 {
		t.Fatal("zero-mass index was sampled")
	}
	for i, want := range []float64{0.1, 0, 0.7, 0.2} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("index %d freq %v want %v", i, got, want)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(99)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams correlated: %d/100 equal", same)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot must panic on length mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}
