package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The packed kernel must be BIT-identical to MatMulT: every transformer
// golden test runs through it on AVX2 hosts. Comparisons are on the bit
// patterns, so a -0 where MatMulT gives +0 fails too.

func requirePackedKernel(t testing.TB) {
	t.Helper()
	if !HasPackedKernel() {
		t.Skip("packed kernel not available in this build or on this CPU")
	}
}

// fillSpecial fills x with a mix of ordinary values, signed zeros and
// subnormals (seeded, deterministic), so sums cross into and out of the
// subnormal range and zero products of both signs occur.
func fillSpecial(x []float32, seed uint64) {
	rng := NewRNG(seed)
	sub := math.Float32frombits(0x00000400) // a subnormal
	for i := range x {
		switch rng.Intn(8) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = float32(math.Copysign(0, -1))
		case 2:
			x[i] = sub * float32(rng.Intn(9)-4)
		case 3:
			x[i] = float32(rng.NormFloat64()) * 1e-38 // near the subnormal edge
		default:
			x[i] = float32(rng.NormFloat64())
		}
	}
}

func requireSameBits(t *testing.T, got, want *Matrix, what string) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: out[%d][%d] = %v (%#x), MatMulT gives %v (%#x)", what,
				i/want.Cols, i%want.Cols, got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

func TestMatMulTPackedMatchesMatMulT(t *testing.T) {
	requirePackedKernel(t)
	for _, tc := range []struct{ rows, cols, n int }{
		{1, 1, 1}, {7, 13, 1}, {7, 13, 3}, {32, 64, 2}, {40, 13, 5},
		{40, 64, 7}, {64, 32, 1}, {160, 64, 3}, {160, 13, 21}, {256, 64, 21},
		{33, 160, 4}, {7, 0, 3},
	} {
		for _, special := range []bool{false, true} {
			name := fmt.Sprintf("%dx%d/n%d/special=%v", tc.rows, tc.cols, tc.n, special)
			w := NewMatrix(tc.rows, tc.cols)
			x := NewMatrix(tc.n, tc.cols)
			if special {
				fillSpecial(w.Data, uint64(tc.rows*1000+tc.cols))
				fillSpecial(x.Data, uint64(tc.n*7+1))
			} else {
				fillSeq(w.Data, 0.3)
				fillSeq(x.Data, -0.9)
			}
			want := NewMatrix(tc.n, tc.rows)
			MatMulT(w, x, want)
			got := NewMatrix(tc.n, tc.rows)
			fillSeq(got.Data, 5) // stale output must be overwritten
			MatMulTPacked(Pack(w), x, got)
			requireSameBits(t, got, want, name)
		}
	}
}

// TestMatMulTPackedAllZeroSigns pins the signed-zero corner exactly:
// a row of -0 products must sum to +0, as MatMulT's chain from +0 does.
func TestMatMulTPackedAllZeroSigns(t *testing.T) {
	requirePackedKernel(t)
	negZero := float32(math.Copysign(0, -1))
	w := NewMatrix(40, 5)
	x := NewMatrix(3, 5)
	for i := range w.Data {
		w.Data[i] = negZero
	}
	for i := range x.Data {
		x.Data[i] = 1
	}
	want := NewMatrix(3, 40)
	MatMulT(w, x, want)
	got := NewMatrix(3, 40)
	MatMulTPacked(Pack(w), x, got)
	requireSameBits(t, got, want, "all -0 weights")
	if math.Signbit(float64(got.Data[0])) {
		t.Fatal("sum of -0 products should be +0")
	}
}

func TestRepackTracksWeights(t *testing.T) {
	requirePackedKernel(t)
	w := NewMatrix(40, 13)
	x := NewMatrix(3, 13)
	fillSeq(w.Data, 0.1)
	fillSeq(x.Data, 0.2)
	p := Pack(w)
	for i := range w.Data {
		w.Data[i] *= -1.5
	}
	p.Repack(w)
	want := NewMatrix(3, 40)
	MatMulT(w, x, want)
	got := NewMatrix(3, 40)
	MatMulTPacked(p, x, got)
	requireSameBits(t, got, want, "after Repack")
}

func TestPackWithoutKernelIsNil(t *testing.T) {
	if HasPackedKernel() {
		t.Skip("packed kernel available")
	}
	if Pack(NewMatrix(4, 4)) != nil {
		t.Fatal("Pack must return nil when the kernel is not built")
	}
}

func TestPackedMatMulAllocFree(t *testing.T) {
	requirePackedKernel(t)
	w := NewMatrix(40, 64)
	x := NewMatrix(3, 64)
	out := NewMatrix(3, 40)
	p := Pack(w)
	if n := testing.AllocsPerRun(10, func() { MatMulTPacked(p, x, out) }); n != 0 {
		t.Fatalf("MatMulTPacked allocates %v times per call", n)
	}
}

// BenchmarkMatMulTPacked times the packed kernel against MatMulT on the
// serving models' projection shapes and on larger ones: packed-* on the
// AVX2 tier and, where it runs, avx512-* on the 512-bit tier.
func BenchmarkMatMulTPacked(b *testing.B) {
	requirePackedKernel(b)
	for _, sh := range []struct{ n, rows, cols int }{
		{1, 256, 64}, {3, 256, 64}, {21, 256, 64}, {21, 160, 64}, {64, 256, 64},
		{128, 256, 64}, {128, 160, 64}, {128, 64, 160},
		{128, 256, 128}, {128, 256, 256}, {128, 512, 256}, {128, 1024, 256},
		{128, 2048, 256}, {128, 3072, 256}, {128, 256, 3072},
	} {
		w := NewMatrix(sh.rows, sh.cols)
		x := NewMatrix(sh.n, sh.cols)
		fillSeq(w.Data, 0.3)
		fillSeq(x.Data, -0.2)
		out := NewMatrix(sh.n, sh.rows)
		p := Pack(w)
		panels := (sh.rows + PanelRows - 1) / PanelRows
		name := fmt.Sprintf("%dx%dx%d", sh.n, sh.rows, sh.cols)
		b.Run(name+"/matmult", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulT(w, x, out)
			}
		})
		b.Run(name+"/packed-serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				packedPanels(p, x, out, 0, panels)
			}
		})
		if !hasAVX512 {
			continue
		}
		b.Run(name+"/avx512-serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				packedPanels512(p, x, out, 0, panels)
			}
		})
	}
}
