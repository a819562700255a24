package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The vector kernels must return the scalar loops' bits exactly: every
// transformer golden test runs through them on AVX2+FMA hosts. All
// comparisons are on bit patterns, so a -0 for +0 or a different NaN
// fails too.

func requirePowKernel(t testing.TB) {
	t.Helper()
	if !hasPowKernel {
		t.Skip("pow kernel not active in this build, on this CPU or under this GODEBUG")
	}
}

func requireExpKernel(t testing.TB) {
	t.Helper()
	if !hasExpKernel {
		t.Skip("exp kernel not active in this build, on this CPU or under this GODEBUG")
	}
}

// expVec is math.Exp over x in place on the exp kernel, with the blocks
// it declines (and the tail) on scalar math.Exp — the composition the
// softmax and SiLU kernels use.
func expVec(x []float64) {
	n := len(x) &^ 3
	i := 0
	for i < n {
		i += expAVX(&x[i], n-i)
		if i < n {
			for j := i; j < i+4; j++ {
				x[j] = math.Exp(x[j])
			}
			i += 4
		}
	}
	for ; i < len(x); i++ {
		x[i] = math.Exp(x[i])
	}
}

// requireExpBits runs expVec on args and compares every lane with
// math.Exp, bit for bit.
func requireExpBits(t *testing.T, args []float64) {
	t.Helper()
	got := make([]float64, len(args))
	copy(got, args)
	expVec(got)
	for i, x := range args {
		if want := math.Exp(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("exp(%v) [%#x] = %v (%#x), math.Exp gives %v (%#x)", x,
				math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

func TestExpKernelSpecialValues(t *testing.T) {
	requireExpKernel(t)
	inf, nan := math.Inf(1), math.NaN()
	minSub := math.Float64frombits(1)
	maxSub := math.Float64frombits(1<<52 - 1)
	const overflow = 7.09782712893384e+02 // archExp's own overflow test
	special := []float64{
		0, math.Copysign(0, -1), minSub, -minSub, maxSub, -maxSub,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		inf, -inf, nan, math.Float64frombits(0x7ff0000000000001), // quiet and signalling NaN
		-708, math.Nextafter(-708, -inf), math.Nextafter(-708, 0),
		709, math.Nextafter(709, inf), math.Nextafter(709, 0),
		overflow, math.Nextafter(overflow, inf), math.Nextafter(overflow, 0),
		709.437, 709.5, 709.7, // k rounds to 1024 here
		-708.39, -708.4, -709, -720, -744.44, -745.13, -745.14, -746, // subnormal and zero results
		-1e300, 1e300, -math.MaxFloat64, math.MaxFloat64,
		1, -1, 0.5, -0.5, 1e-300, -1e-300, 88.72, -87.33, -103.97,
	}
	// Every special value in every lane of a block, between ordinary
	// arguments, so a declined block is computed whole by the fallback
	// and its neighbours stay on the kernel.
	var args []float64
	for _, s := range special {
		for lane := 0; lane < 4; lane++ {
			block := []float64{-1.5, 0.25, -3.75, 2}
			block[lane] = s
			args = append(args, -0.3, 0.7, -2.1, 1.1)
			args = append(args, block...)
		}
	}
	args = append(args, special...) // and unaligned, with a tail
	requireExpBits(t, args)
}

func TestExpKernelRandom(t *testing.T) {
	requireExpKernel(t)
	rng := NewRNG(2024)
	args := make([]float64, 1<<16)
	for chunk := 0; chunk < 16; chunk++ { // 1 M arguments in all
		for i := range args {
			switch i % 4 {
			case 0: // the whole fast range and a margin beyond both edges
				args[i] = rng.Float64()*1460 - 730
			case 1: // softmax arguments: small, mostly negative
				args[i] = -rng.Float64() * 40
			case 2: // any float64 bit pattern
				args[i] = math.Float64frombits(rng.Uint64())
			default: // SiLU arguments: exp(-v) of a normal activation
				args[i] = rng.NormFloat64() * 4
			}
		}
		requireExpBits(t, args)
	}
}

// TestExpKernelFloat32Arguments covers the softmax arguments exactly: the
// widened differences of two float32 values, swept over every 61st
// float32 bit pattern from -0 down to -128 (about 18 M values).
func TestExpKernelFloat32Arguments(t *testing.T) {
	requireExpKernel(t)
	lo := math.Float32bits(-128)
	args := make([]float64, 0, 1<<16)
	for b := math.Float32bits(float32(math.Copysign(0, -1))); b <= lo; b += 61 {
		args = append(args, float64(math.Float32frombits(b)))
		if len(args) == cap(args) {
			requireExpBits(t, args)
			args = args[:0]
		}
	}
	requireExpBits(t, args)
}

// vecInputs returns a length-n vector of softmax/SiLU inputs of the given
// flavour, seeded and deterministic.
func vecInputs(n int, flavour string, seed uint64) []float32 {
	rng := NewRNG(seed)
	x := make([]float32, n)
	negZero := float32(math.Copysign(0, -1))
	for i := range x {
		switch flavour {
		case "normal":
			x[i] = float32(rng.NormFloat64() * 3)
		case "masked": // the tree-attention shape: some slots masked
			x[i] = float32(rng.NormFloat64() * 3)
			if rng.Intn(3) == 0 {
				x[i] = NegInf
			}
		case "allmasked":
			x[i] = NegInf
		case "negzeromax": // the maximum is -0
			x[i] = -float32(rng.Float64() * 5)
			if i == n/2 || rng.Intn(5) == 0 {
				x[i] = negZero
			}
		case "wide": // differences beyond the kernel's range, and huge values
			x[i] = float32(rng.NormFloat64() * 600)
			if rng.Intn(7) == 0 {
				x[i] = float32(rng.NormFloat64() * 3e38)
			}
		case "special":
			switch rng.Intn(9) {
			case 0:
				x[i] = float32(math.Inf(1))
			case 1:
				x[i] = NegInf
			case 2:
				x[i] = float32(math.NaN())
			case 3:
				x[i] = negZero
			case 4:
				x[i] = math.Float32frombits(0x00000400)
			default:
				x[i] = float32(rng.NormFloat64() * 50)
			}
		}
	}
	return x
}

var vecFlavours = []string{"normal", "masked", "allmasked", "negzeromax", "wide", "special"}

func requireSameFloat32s(t *testing.T, got, want []float32, what string) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), scalar loop gives %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestSoftmaxKernelsMatchScalar(t *testing.T) {
	requireExpKernel(t)
	for _, flavour := range vecFlavours {
		for n := 1; n <= 300; n++ {
			x := vecInputs(n, flavour, uint64(n))
			for _, masked := range []bool{false, true} {
				// The float64 sum first: rounding 1/sum to float32 hides
				// most changes to its order from the outputs.
				maxv := x[0]
				for _, v := range x {
					if v > maxv {
						maxv = v
					}
				}
				got := append([]float32(nil), x...)
				i, sum := expShiftVec(got, maxv, masked)
				sum = expShift(got[i:], maxv, masked, sum)
				want := append([]float32(nil), x...)
				wantSum := expShift(want, maxv, masked, 0)
				if math.Float64bits(sum) != math.Float64bits(wantSum) {
					t.Fatalf("%s n=%d masked=%v: sum %v, scalar loop gives %v", flavour, n, masked, sum, wantSum)
				}
				requireSameFloat32s(t, got, want, fmt.Sprintf("%s n=%d masked=%v exponentials", flavour, n, masked))

				got = append(got[:0], x...)
				want = append(want[:0], x...)
				if masked {
					SoftmaxMasked(got)
				} else {
					Softmax(got)
				}
				softmax(want, masked, false)
				requireSameFloat32s(t, got, want, fmt.Sprintf("%s n=%d masked=%v", flavour, n, masked))
			}
		}
	}
}

func TestSiLUKernelMatchesScalar(t *testing.T) {
	requireExpKernel(t)
	for _, flavour := range vecFlavours {
		for n := 1; n <= 300; n++ {
			x := vecInputs(n, flavour, uint64(1000+n))
			got := append([]float32(nil), x...)
			want := append([]float32(nil), x...)
			SiLU(got)
			silu(want, false)
			requireSameFloat32s(t, got, want, fmt.Sprintf("%s n=%d", flavour, n))
		}
	}
	// Arguments where exp(-v) leaves the kernel's range on either side.
	x := []float32{-708, -709, -710, 708, 709, 710, -1e30, 1e30, -88, 88, 0.5, -0.5}
	got := append([]float32(nil), x...)
	want := append([]float32(nil), x...)
	SiLU(got)
	silu(want, false)
	requireSameFloat32s(t, got, want, "range edges")
}

// powTemperatures are the sampling temperatures the pow tests run at:
// y = 1/T covers the scalar-only exponents (T = 0.03 gives yi >= 32,
// T = 2 gives pow's Sqrt case), integer y (T = 0.05, 0.5, 1/3), both of
// pow's yf branches (T = 0.6 gives yf > 0.5) and y < 1 (T > 1).
var powTemperatures = []float64{0.03, 0.05, 0.1, 0.25, 1.0 / 3, 0.5, 0.6, 0.7, 0.9, 1.5, 2, 3}

// powRef is the operation Pow performs on one element, in float64.
func powRef(p, y float64) float64 {
	if p > 0 {
		return math.Pow(p, y)
	}
	return p
}

// powWide returns the float64 results of the pow kernel's blocks, taken
// from its scratch, with powRef's result for the blocks it declines and
// the tail.
func powWide(x []float32, y float64) []float64 {
	wide := make([]float64, len(x))
	for i, p := range x {
		wide[i] = powRef(float64(p), y)
	}
	yf, yi, ok := powKernelArgs(y)
	if !ok {
		return wide
	}
	buf := append([]float32(nil), x...)
	var t [powChunk]float64
	for i, n := 0, len(x)&^3; i < n; {
		m := min(n-i, powChunk)
		done := powVec(buf[i:i+m], yf, yi, &t)
		copy(wide[i:], t[:done])
		i += done
		if done < m {
			i += 4
		}
	}
	return wide
}

// requirePowBits runs Pow on x and compares every element with
// float32(math.Pow(float64(p), y)) for p > 0 and with p itself otherwise
// (a signalling NaN included), bit for bit. Rounding to float32 hides
// almost every float64 difference, so it also compares the kernel's
// float64 results (powWide) with math.Pow's, bit for bit.
func requirePowBits(t *testing.T, x []float32, y float64, what string) {
	t.Helper()
	got := append([]float32(nil), x...)
	Pow(got, y)
	wide := powWide(x, y)
	for i, p := range x {
		want := powRef(float64(p), y)
		if math.Float64bits(wide[i]) != math.Float64bits(want) {
			t.Fatalf("%s: float64 pow(%v [%#x], %v) = %v (%#x), math.Pow gives %v (%#x)", what,
				p, math.Float32bits(p), y, wide[i], math.Float64bits(wide[i]), want, math.Float64bits(want))
		}
		want32 := p
		if p > 0 {
			want32 = float32(want)
		}
		if math.Float32bits(got[i]) != math.Float32bits(want32) {
			t.Fatalf("%s: pow(%v [%#x], %v) = %v (%#x), math.Pow gives %v (%#x)", what,
				p, math.Float32bits(p), y, got[i], math.Float32bits(got[i]), want32, math.Float32bits(want32))
		}
	}
}

// powSpecials are inputs at the edges of the kernel's domain: signed
// zeros, NaNs, infinities, float32 subnormals from 2^-149 up, the edges of
// the normal range, values around 1 and around archLog's Sqrt2/2 split,
// and negatives.
var powSpecials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.NaN()), math.Float32frombits(0x7fc00001),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(1), math.Float32frombits(2), math.Float32frombits(0x400),
	math.Float32frombits(0x007fffff), math.Float32frombits(0x00800000),
	1, math.Nextafter32(1, 0), math.Nextafter32(1, 2), 0.5, 2,
	float32(math.Sqrt2 / 2), math.Nextafter32(float32(math.Sqrt2/2), 0), math.Nextafter32(float32(math.Sqrt2/2), 1),
	math.MaxFloat32, math.Nextafter32(math.MaxFloat32, 0), 1e30, 1e-30,
	-1, -0.5, -math.MaxFloat32, -math.Float32frombits(1),
}

func TestPowKernelSpecialValues(t *testing.T) {
	requirePowKernel(t)
	// Every special value in every lane of a block, between ordinary
	// probabilities, so a declined block is computed whole by the
	// fallback and its neighbours stay on the kernel.
	var x []float32
	for _, s := range powSpecials {
		for lane := 0; lane < 4; lane++ {
			block := []float32{0.3, 0.01, 0.6, 0.09}
			block[lane] = s
			x = append(x, 0.2, 0.7, 1e-4, 0.05)
			x = append(x, block...)
		}
	}
	x = append(x, powSpecials...) // and unaligned, with a tail
	for _, temp := range powTemperatures {
		requirePowBits(t, x, 1/temp, fmt.Sprintf("T=%v", temp))
	}
}

// TestPowKernelRandom compares 1 M random float32 inputs per temperature:
// sampling probabilities, every positive finite float32 bit pattern, and
// any bit pattern at all.
func TestPowKernelRandom(t *testing.T) {
	requirePowKernel(t)
	x := make([]float32, 1<<16)
	for ti, temp := range powTemperatures {
		rng := NewRNG(uint64(31 + ti))
		for chunk := 0; chunk < 16; chunk++ {
			for i := range x {
				switch i % 4 {
				case 0: // a probability from a sampling distribution
					x[i] = float32(rng.Float64())
				case 1: // a small probability from a peaked distribution
					x[i] = float32(math.Exp(-rng.Float64() * 100))
				case 2: // any positive finite float32, subnormals included
					x[i] = math.Float32frombits(uint32(rng.Uint64() % 0x7f800000))
				default: // any bit pattern
					x[i] = math.Float32frombits(uint32(rng.Uint64()))
				}
			}
			requirePowBits(t, x, 1/temp, fmt.Sprintf("T=%v chunk %d", temp, chunk))
		}
	}
}

// TestPowKernelLengths covers every length from 1 to 300 — partial
// blocks, tails, zeros, and a declined block with its +Inf in every lane
// position, in the tail too — at every temperature.
func TestPowKernelLengths(t *testing.T) {
	requirePowKernel(t)
	for _, temp := range powTemperatures {
		for n := 1; n <= 300; n++ {
			x := vecInputs(n, "normal", uint64(n))
			Softmax(x)
			if n%3 == 0 {
				x[n/2] = 0
			}
			if n%5 == 0 {
				x[2*n/3] = float32(math.Inf(1))
			}
			if n%7 == 0 {
				x[n-1] = float32(math.Inf(1))
			}
			requirePowBits(t, x, 1/temp, fmt.Sprintf("T=%v n=%d", temp, n))
		}
	}
}

// TestPowKernelTakesItsDomain guards against a kernel that declines
// everything, which the bit comparisons above cannot see: on sampling
// distributions it must do every whole block for every y in its domain,
// and powKernelArgs must send exactly the documented y to the scalar loop.
func TestPowKernelTakesItsDomain(t *testing.T) {
	requirePowKernel(t)
	x := vecInputs(powChunk, "normal", 7)
	Softmax(x)
	for _, temp := range powTemperatures {
		y := 1 / temp
		yf, yi, ok := powKernelArgs(y)
		if want := y < 32 && y != 0.5 && y != 1; ok != want {
			t.Fatalf("T=%v: powKernelArgs ok = %v, want %v", temp, ok, want)
		}
		if !ok {
			continue
		}
		if yf <= -0.5 || yf > 0.5 || float64(yi)+yf != y {
			t.Fatalf("T=%v: split %v = %d + %v", temp, y, yi, yf)
		}
		buf := append([]float32(nil), x...)
		var scratch [powChunk]float64
		if done := powVec(buf[:powChunk], yf, yi, &scratch); done != powChunk {
			t.Fatalf("T=%v: kernel did %d of %d elements", temp, done, powChunk)
		}
	}
	for _, y := range []float64{0, -1, 1, 0.5, 32, 31.6, math.Inf(1), math.NaN()} {
		if _, _, ok := powKernelArgs(y); ok {
			t.Fatalf("powKernelArgs(%v) accepted", y)
		}
	}
}

var (
	attnRowCounts = []int{0, 1, 7, 8, 15, 16, 17, 40, 160, 300}
	attnHeadDims  = []int{2, 6, 8, 16, 32, 64}
)

func TestDotRowsContig4KernelMatchesDot(t *testing.T) {
	for _, rows := range attnRowCounts {
		for _, hd := range attnHeadDims {
			q := make([]float32, hd)
			page := make([]float32, rows*hd+3) // a page may run past the rows read
			fillSpecial(q, uint64(rows*100+hd))
			fillSpecial(page, uint64(rows*100+hd+1))
			got := make([]float32, rows)
			DotRowsContig4(q, page, got)
			want := make([]float32, rows)
			for r := range want {
				want[r] = Dot(q, page[r*hd:][:hd])
			}
			requireSameFloat32s(t, got, want, fmt.Sprintf("rows %d hd %d", rows, hd))
		}
	}
}

func TestAttnAccumContigKernelMatchesAccumRows(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, rows := range attnRowCounts {
		for _, hd := range attnHeadDims {
			scores := make([]float32, rows)
			page := make([]float32, rows*hd+3)
			fillSpecial(scores, uint64(rows*100+hd)) // zero and -0 weights included
			fillSpecial(page, uint64(rows*100+hd+1))
			got := make([]float32, hd)
			fillSpecial(got, uint64(rows*100+hd+2))
			got[0] = negZero // only a skipped row leaves a -0 accumulator alone
			want := append([]float32(nil), got...)
			AttnAccumContig(scores, page, got)
			accumRows(scores, page, hd, want)
			requireSameFloat32s(t, got, want, fmt.Sprintf("rows %d hd %d", rows, hd))
		}
	}
}

func TestVectorKernelsAllocFree(t *testing.T) {
	x := vecInputs(160, "masked", 1)
	logits := vecInputs(256, "normal", 2)
	act := vecInputs(160, "normal", 3)
	q := vecInputs(16, "normal", 4)
	page := vecInputs(64*16, "normal", 5)
	out := make([]float32, 64)
	dst := make([]float32, 16)
	probs := vecInputs(255, "normal", 6) // a tail too
	Softmax(probs)
	for name, f := range map[string]func(){
		"Pow":             func() { Pow(probs, 1/0.7); Pow(probs, 0.7) },
		"SoftmaxMasked":   func() { SoftmaxMasked(x) },
		"Softmax":         func() { Softmax(logits) },
		"SiLU":            func() { SiLU(act) },
		"DotRowsContig4":  func() { DotRowsContig4(q, page, out) },
		"AttnAccumContig": func() { AttnAccumContig(out, page, dst) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %v times per call", name, allocs)
		}
	}
}

// Kernel benchmarks at serving shapes. The scalar sub-benchmarks run the
// same inputs through the scalar loops, so one run reports both sides.

func BenchmarkSoftmaxMasked(b *testing.B) {
	x := vecInputs(160, "normal", 1)
	for j := 150; j < len(x); j += 2 {
		x[j] = NegInf // the tree segment: a few new slots masked
	}
	buf := make([]float32, len(x))
	for _, vec := range []bool{false, true} {
		b.Run(kernelName(vec), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, x)
				softmax(buf, true, vec)
			}
		})
	}
}

func BenchmarkSoftmax(b *testing.B) {
	x := vecInputs(256, "normal", 2) // one row of LM-head logits
	buf := make([]float32, len(x))
	for _, vec := range []bool{false, true} {
		b.Run(kernelName(vec), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, x)
				softmax(buf, false, vec)
			}
		})
	}
}

func BenchmarkSiLU(b *testing.B) {
	for _, rows := range []int{1, 21} {
		x := vecInputs(160*rows, "normal", 3) // FFN width 160
		buf := make([]float32, len(x))
		for _, vec := range []bool{false, true} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, kernelName(vec)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, x)
					silu(buf, vec)
				}
			})
		}
	}
}

func kernelName(vec bool) string {
	if vec && hasExpKernel {
		return "kernel"
	}
	return "scalar"
}
