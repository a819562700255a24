package tensor

import "testing"

// Tests for the batched kernels backing the token-batched forward path.
// MatMulT and SoftmaxRows must be BIT-identical to their scalar
// counterparts (the transformer's golden tests rely on it), so these
// tests compare with ==, not a tolerance.

func fillSeq(x []float32, seed float32) {
	v := seed
	for i := range x {
		x[i] = v
		v = v*1.0001 + 0.01
		if v > 3 {
			v -= 6
		}
	}
}

func TestMatMulTMatchesMatVec(t *testing.T) {
	w := NewMatrix(7, 5)
	x := NewMatrix(3, 5)
	fillSeq(w.Data, 0.2)
	fillSeq(x.Data, -1.3)
	out := NewMatrix(3, 7)
	MatMulT(w, x, out)
	want := make([]float32, 7)
	for i := 0; i < 3; i++ {
		MatVec(w, x.Row(i), want)
		for j := range want {
			if out.At(i, j) != want[j] {
				t.Fatalf("out[%d][%d] = %v, MatVec gives %v", i, j, out.At(i, j), want[j])
			}
		}
	}
}

func TestMatMulTParallelMatchesSerial(t *testing.T) {
	// Large enough to cross parallelThreshold and take the goroutine path.
	w := NewMatrix(301, 130)
	x := NewMatrix(5, 130)
	fillSeq(w.Data, 0.7)
	fillSeq(x.Data, -0.4)
	par := NewMatrix(5, 301)
	MatMulT(w, x, par)
	if 5*301*130 < parallelThreshold {
		t.Fatal("test geometry no longer crosses parallelThreshold")
	}
	want := make([]float32, 301)
	for i := 0; i < 5; i++ {
		MatVec(w, x.Row(i), want)
		for j := range want {
			if par.At(i, j) != want[j] {
				t.Fatalf("parallel out[%d][%d] = %v, serial gives %v", i, j, par.At(i, j), want[j])
			}
		}
	}
}

func TestMatMulTPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dim mismatch")
		}
	}()
	MatMulT(NewMatrix(2, 3), NewMatrix(2, 4), NewMatrix(2, 2))
}

func TestSoftmaxRowsMatchesSoftmax(t *testing.T) {
	m := NewMatrix(4, 9)
	fillSeq(m.Data, 1.1)
	m.Set(2, 3, NegInf) // masked entry must survive row-wise treatment
	want := make([][]float32, m.Rows)
	for i := range want {
		row := make([]float32, m.Cols)
		copy(row, m.Row(i))
		Softmax(row)
		want[i] = row
	}
	SoftmaxRows(m)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("row %d col %d: %v vs %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestScratchFloatsReuse(t *testing.T) {
	s := NewScratch()
	a := s.Floats("k", 8)
	b := s.Floats("k", 4)
	if &a[0] != &b[0] {
		t.Fatal("shrinking request must reuse storage")
	}
	if len(b) != 4 {
		t.Fatalf("len %d, want 4", len(b))
	}
	c := s.Floats("k", 32)
	if len(c) != 32 {
		t.Fatalf("len %d, want 32", len(c))
	}
	if s.Floats("other", 8)[0] != 0 {
		t.Fatal("fresh buffer not zeroed on first allocation")
	}
}

func TestScratchMatReuse(t *testing.T) {
	s := NewScratch()
	a := s.Mat("m", 3, 4)
	if a.Rows != 3 || a.Cols != 4 || len(a.Data) != 12 {
		t.Fatalf("bad dims %dx%d len %d", a.Rows, a.Cols, len(a.Data))
	}
	b := s.Mat("m", 2, 5)
	if b != a {
		t.Fatal("same key must return the same header")
	}
	if b.Rows != 2 || b.Cols != 5 || len(b.Data) != 10 {
		t.Fatalf("bad redimension %dx%d len %d", b.Rows, b.Cols, len(b.Data))
	}
	if &b.Data[0] != &a.Data[0] {
		t.Fatal("smaller request must reuse storage")
	}
	big := s.Mat("m", 10, 10)
	if len(big.Data) != 100 {
		t.Fatalf("grow failed: len %d", len(big.Data))
	}
}

func TestSoftmaxMaskedMatchesSoftmax(t *testing.T) {
	mk := func() []float32 {
		x := make([]float32, 13)
		fillSeq(x, -0.9)
		for _, i := range []int{0, 3, 4, 9, 12} {
			x[i] = NegInf
		}
		return x
	}
	a, b := mk(), mk()
	Softmax(a)
	SoftmaxMasked(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d: %v vs %v (bit-exactness broken)", i, a[i], b[i])
		}
	}
	// All-masked input must keep Softmax's uniform fallback.
	all := []float32{NegInf, NegInf, NegInf}
	SoftmaxMasked(all)
	for _, v := range all {
		if v != 1.0/3 {
			t.Fatalf("all-masked fallback broken: %v", all)
		}
	}
}

func TestRopeTableMatchesRope(t *testing.T) {
	const dim, theta = 16, 10000.0
	tab := NewRopeTable(theta, dim)
	for _, pos := range []int{0, 1, 7, 3, 7, 100, -2} {
		a := make([]float32, dim)
		b := make([]float32, dim)
		fillSeq(a, float32(pos)*0.13)
		copy(b, a)
		Rope(a, pos, theta)
		tab.Apply(b, pos)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pos %d index %d: %v vs %v (bit-exactness broken)", pos, i, a[i], b[i])
			}
		}
	}
}
