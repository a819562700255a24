package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// FuzzExpKernels feeds the exponential kernels blocks of float32 keys
// from raw bytes (any bit pattern: ±0, subnormals, ±Inf, NaN and values
// whose differences fall far outside the kernel's [-708, 709]) and a
// free softmax maximum, and requires the 512-bit tier, the AVX2 tier and
// the scalar loops to agree bit for bit on SoftmaxBlock over 1-8 rows,
// softmax and its exponential pass, SiLU and the float64 exponential;
// on the block pass the float64 sums too, at the lanes' maxima where
// those are finite and at the fuzzed maximum elsewhere.
// shape picks the block's row count (bits 0-2) and causal row lengths
// (bit 3). Its seed corpus runs under plain go test.
func FuzzExpKernels(f *testing.F) {
	f.Add(fuzzFloats(0.5, -1.25, 3, 0, -0.0, 7.5, -2, 1), uint8(1), float32(3))
	f.Add(fuzzFloats(1e-45, -1e-45, 1e-39, float32(math.Inf(1)), float32(math.Inf(-1)), 1, 2, 3, 4, 5), uint8(2), float32(0))
	f.Add(fuzzFloats(float32(math.NaN()), 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13), uint8(7), float32(math.NaN()))
	f.Add(fuzzFloats(800, -800, 3e38, -3e38, 709, -708, 710, -709, 0.1, -0.1, 88, -104, 20, 30, 40, 50, 60), uint8(11), float32(-3e38))
	f.Add(fuzzFloats(-1, -2, -3, float32(math.Inf(-1)), -5, -6, -7, -8, -9, float32(math.Inf(-1)), -11, -12), uint8(12), float32(math.Inf(-1)))
	f.Add(fuzzFloats(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, -2, -4, -8, -16, -32, -64, -128, -256, -512), uint8(15), float32(math.Inf(1)))
	f.Fuzz(func(t *testing.T, raw []byte, shape uint8, maxv float32) {
		if !hasExp512 {
			t.Skip(tier512Off)
		}
		vals := make([]float32, min(len(raw)/4, 600))
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		if len(vals) == 0 {
			return
		}
		tiers := []tier{avx2Tier, avx512Tier}

		// SoftmaxBlock: rows lanes of n keys each, NegInf past a row's
		// length, the other lanes repeating the last row.
		rows := 1 + int(shape%BlockLanes)
		if n := len(vals) / rows; n > 0 {
			lens := make([]int, rows)
			for i := range lens {
				lens[i] = n
				if shape&8 != 0 {
					lens[i] = max(n-rows+1+i, 1)
				}
			}
			src := make([]float32, n*BlockLanes)
			for i := 0; i < BlockLanes; i++ {
				l := min(i, rows-1)
				for r := 0; r < n; r++ {
					v := NegInf
					if r < lens[l] {
						v = vals[l*n+r]
					}
					src[r*BlockLanes+i] = v
				}
			}
			for _, tr := range tiers {
				requireExpBlockSums(t, tr, src, n, laneMaxima(src, n, maxv), fmt.Sprintf("%d rows of %d keys", rows, n))
			}
			want := append([]float32(nil), src...)
			softmaxBlock(want, lens, scalarTier)
			for _, tr := range tiers {
				got := append([]float32(nil), src...)
				softmaxBlock(got, lens, tr)
				for r := 0; r < n; r++ {
					for i := 0; i < rows; i++ {
						g, w := got[r*BlockLanes+i], want[r*BlockLanes+i]
						if math.Float32bits(g) != math.Float32bits(w) {
							t.Fatalf("tier %d SoftmaxBlock %d rows of %d keys: lane %d key %d: %v (%#x), scalar loop gives %v (%#x)",
								tr, rows, n, i, r, g, math.Float32bits(g), w, math.Float32bits(w))
						}
					}
				}
			}
		}

		// softmax, and its exponential pass at the fuzzed maximum.
		for _, masked := range []bool{false, true} {
			want := append([]float32(nil), vals...)
			softmax(want, masked, scalarTier)
			wantExp := append([]float32(nil), vals...)
			wantSum := expShift(wantExp, maxv, masked, 0)
			for _, tr := range tiers {
				what := fmt.Sprintf("tier %d masked=%v n=%d", tr, masked, len(vals))
				got := append([]float32(nil), vals...)
				softmax(got, masked, tr)
				requireSameFloat32s(t, got, want, what+" softmax")
				got = append(got[:0], vals...)
				i, sum := expShiftVec(got, maxv, masked, tr, 0)
				sum = expShift(got[i:], maxv, masked, sum)
				if math.Float64bits(sum) != math.Float64bits(wantSum) {
					t.Fatalf("%s maxv %v: sum %v, scalar loop gives %v", what, maxv, sum, wantSum)
				}
				requireSameFloat32s(t, got, wantExp, fmt.Sprintf("%s maxv %v exponentials", what, maxv))
			}
		}

		want := append([]float32(nil), vals...)
		silu(want, scalarTier)
		for _, tr := range tiers {
			got := append([]float32(nil), vals...)
			silu(got, tr)
			requireSameFloat32s(t, got, want, fmt.Sprintf("tier %d SiLU n=%d", tr, len(vals)))
		}

		// The float64 exponential on the same bytes as float64s.
		args := make([]float64, len(raw)/8)
		for i := range args {
			args[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		got := make([]float64, len(args))
		for _, tr := range tiers {
			copy(got, args)
			expVec(got, tr)
			for i, a := range args {
				if w := math.Exp(a); math.Float64bits(got[i]) != math.Float64bits(w) {
					t.Fatalf("tier %d: exp(%v) [%#x] = %v (%#x), math.Exp gives %v (%#x)", tr, a,
						math.Float64bits(a), got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
				}
			}
		}
	})
}

// fuzzFloats encodes v as FuzzExpKernels' raw bytes.
func fuzzFloats(v ...float32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
	return b
}
