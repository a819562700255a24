package tensor

import (
	"fmt"
	"math"
	"testing"
)

// Tier-versus-tier tables: every kernel of the 512-bit tier against its
// AVX2 twin and the scalar oracle, bit for bit, over the shapes around
// its lane widths and blocking, and allocation-free. The AVX2 rows run
// on every AVX2 host, AVX-512 hosts included; the 512-bit rows skip with
// a message where that tier is off.

const tier512Off = "512-bit tier off: the CPU lacks AVX-512F, the OS does not save opmask and ZMM state, or (exponentials) its probe failed"

// forTiers runs f as one subtest per vector tier, avx2 and avx512, the
// second only where has512.
func forTiers(t *testing.T, has512 bool, f func(t *testing.T, tr tier)) {
	t.Helper()
	t.Run("avx2", func(t *testing.T) { f(t, avx2Tier) })
	t.Run("avx512", func(t *testing.T) {
		if !has512 {
			t.Skip(tier512Off)
		}
		f(t, avx512Tier)
	})
}

// tierKeyCounts are the key (or element) counts of the exponential
// tables: around the four- and eight-lane blocks, the 64-row page and a
// long row.
var tierKeyCounts = []int{1, 7, 8, 9, 63, 64, 65, 300}

// packedTier runs MatMulTPacked's serial loop on tier tr over panels
// [s, e).
func packedTier(tr tier, w *PackedMatrix, x, out *Matrix, s, e int) {
	if tr == avx512Tier {
		packedPanels512(w, x, out, s, e)
		return
	}
	packedPanels(w, x, out, s, e)
}

func TestPanelTiersMatchMatMulT(t *testing.T) {
	requirePackedKernel(t)
	forTiers(t, hasAVX512, func(t *testing.T, tr tier) {
		// 40 outputs: a pair of panels, the second padded; 72: an odd
		// padded last panel; 96: three full panels.
		for _, outs := range []int{40, 72, 96} {
			for rows := 1; rows <= 9; rows++ {
				for _, k := range []int{1, 7, 8, 63, 64, 65, 160, 256} {
					seed := uint64(outs*10000 + rows*1000 + k)
					w := NewMatrix(outs, k)
					x := NewMatrix(rows, k)
					fillSpecial(w.Data, seed)
					fillSpecial(x.Data, seed+1)
					want := NewMatrix(rows, outs)
					MatMulT(w, x, want)
					p := Pack(w)
					panels := (outs + PanelRows - 1) / PanelRows
					what := fmt.Sprintf("tier %d, %d rows x %d outputs, k %d", tr, rows, outs, k)
					got := NewMatrix(rows, outs)
					packedTier(tr, p, x, got, 0, panels)
					requireSameBits(t, got, want, what)
					// As a 2-way split runs it: two panel ranges, the
					// second starting past panel 0.
					clear(got.Data)
					packedTier(tr, p, x, got, 0, panels/2)
					packedTier(tr, p, x, got, panels/2, panels)
					requireSameBits(t, got, want, what+", split")
				}
			}
		}
		w, x, out := NewMatrix(72, 65), NewMatrix(7, 65), NewMatrix(7, 72)
		p := Pack(w)
		if n := testing.AllocsPerRun(20, func() { packedTier(tr, p, x, out, 0, 3) }); n != 0 {
			t.Fatalf("tier %d panels allocate %v times per call", tr, n)
		}
	})
}

func TestExpTiersMatchScalar(t *testing.T) {
	requireExpKernel(t)
	forTiers(t, hasExp512, func(t *testing.T, tr tier) {
		for _, flavour := range vecFlavours {
			for _, n := range tierKeyCounts {
				seed := uint64(n * 7)
				x := vecInputs(n, flavour, seed)

				// The float64 exponential, the probe's kernel.
				args := make([]float64, n)
				for i, v := range x {
					args[i] = float64(v) * 3
				}
				got64 := append([]float64(nil), args...)
				expVec(got64, tr)
				for i, a := range args {
					if want := math.Exp(a); math.Float64bits(got64[i]) != math.Float64bits(want) {
						t.Fatalf("%s n=%d: exp(%v) = %v, math.Exp gives %v", flavour, n, a, got64[i], want)
					}
				}

				// softmax and its exponential pass, the float64 sum first.
				for _, masked := range []bool{false, true} {
					what := fmt.Sprintf("%s n=%d masked=%v", flavour, n, masked)
					maxv := x[0]
					for _, v := range x {
						if v > maxv {
							maxv = v
						}
					}
					got := append([]float32(nil), x...)
					i, sum := expShiftVec(got, maxv, masked, tr, 0)
					sum = expShift(got[i:], maxv, masked, sum)
					want := append([]float32(nil), x...)
					if wantSum := expShift(want, maxv, masked, 0); math.Float64bits(sum) != math.Float64bits(wantSum) {
						t.Fatalf("%s: sum %v, scalar loop gives %v", what, sum, wantSum)
					}
					requireSameFloat32s(t, got, want, what+" exponentials")
					got = append(got[:0], x...)
					want = append(want[:0], x...)
					softmax(got, masked, tr)
					softmax(want, masked, scalarTier)
					requireSameFloat32s(t, got, want, what)
				}

				got := append([]float32(nil), x...)
				want := append([]float32(nil), x...)
				silu(got, tr)
				silu(want, scalarTier)
				requireSameFloat32s(t, got, want, fmt.Sprintf("%s n=%d SiLU", flavour, n))

				// SoftmaxBlock over 1-8 rows, each row over all n keys or
				// a causal segment of them.
				for rows := 1; rows <= BlockLanes; rows++ {
					for _, causal := range []bool{false, true} {
						lens := make([]int, rows)
						for i := range lens {
							lens[i] = n
							if causal {
								lens[i] = max(n-rows+1+i, 1)
							}
						}
						blk := tierBlock(n, lens, flavour, seed+uint64(rows))
						requireExpBlockSums(t, tr, blk, n, laneMaxima(blk, n, 0),
							fmt.Sprintf("%s n=%d rows=%d causal=%v", flavour, n, rows, causal))
						ref := append([]float32(nil), blk...)
						softmaxBlock(blk, lens, tr)
						softmaxBlock(ref, lens, scalarTier)
						for i := range lens {
							for r := 0; r < n; r++ {
								g, w := blk[r*BlockLanes+i], ref[r*BlockLanes+i]
								if math.Float32bits(g) != math.Float32bits(w) {
									t.Fatalf("%s n=%d rows=%d causal=%v: lane %d key %d: %v (%#x), scalar loop gives %v (%#x)",
										flavour, n, rows, causal, i, r, g, math.Float32bits(g), w, math.Float32bits(w))
								}
							}
						}
					}
				}
			}
		}

		x := vecInputs(300, "masked", 1)
		args := make([]float64, 300)
		lens := []int{300, 300, 300, 300, 300, 300, 300, 300}
		blk := tierBlock(300, lens, "normal", 2)
		for name, f := range map[string]func(){
			"exp":           func() { expVec(args, tr) },
			"softmax":       func() { softmax(x, false, tr) },
			"softmaxMasked": func() { softmax(x, true, tr) },
			"silu":          func() { silu(x, tr) },
			"softmaxBlock":  func() { softmaxBlock(blk, lens, tr) },
			"softmaxBlock4": func() { softmaxBlock(blk, lens[:4], tr) },
		} {
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Errorf("tier %d %s allocates %v times per call", tr, name, allocs)
			}
		}
	})
}

// laneMaxima returns each lane's largest entry over the n-key block x,
// or def where that is not finite.
func laneMaxima(x []float32, n int, def float32) *[BlockLanes]float32 {
	var m [BlockLanes]float32
	for i := range m {
		m[i] = NegInf
		for r := 0; r < n; r++ {
			m[i] = max(m[i], x[r*BlockLanes+i])
		}
		if math.IsInf(float64(m[i]), 0) || m[i] != m[i] {
			m[i] = def
		}
	}
	return &m
}

// requireExpBlockSums runs the block exponential pass on tier tr over
// four and over eight lanes of a copy of x at maxima m, and requires the
// scalar chain's bits: every lane's float64 sum in key order, which the
// softmax's float32 outputs show only through 1/sum's rounding, and every
// exponential.
func requireExpBlockSums(t *testing.T, tr tier, x []float32, n int, m *[BlockLanes]float32, what string) {
	t.Helper()
	for _, lanes := range []int{4, BlockLanes} {
		got := append([]float32(nil), x...)
		sums := expBlockVec(got, n, m, lanes, tr)
		for i := 0; i < lanes; i++ {
			var want float64
			for r := 0; r < n; r++ {
				v, g := x[r*BlockLanes+i], got[r*BlockLanes+i]
				w := float32(0)
				if !isNegInf(v) {
					e := math.Exp(float64(v - m[i]))
					w = float32(e)
					want += e
				}
				if math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("tier %d %s, %d lanes: lane %d key %d: exp %v (%#x), scalar loop gives %v (%#x)",
						tr, what, lanes, i, r, g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
			// Where two NaNs meet in a sum, the payload is the first
			// operand's, and Go may evaluate s += e as e + s: any NaN
			// matches a NaN there. (SoftmaxBlock never reaches this pass
			// with a NaN or non-finite maximum.)
			bothNaN := math.IsNaN(sums[i]) && math.IsNaN(want)
			if math.Float64bits(sums[i]) != math.Float64bits(want) && !bothNaN {
				t.Fatalf("tier %d %s, %d lanes: lane %d sum %v (%#x), scalar chain gives %v (%#x)",
					tr, what, lanes, i, sums[i], math.Float64bits(sums[i]), want, math.Float64bits(want))
			}
		}
	}
}

// tierBlock returns an n-key block whose lane i holds lens[i] inputs of
// the given flavour, then NegInf padding; lanes past len(lens) repeat the
// last row.
func tierBlock(n int, lens []int, flavour string, seed uint64) []float32 {
	blk := make([]float32, n*BlockLanes)
	for i := 0; i < BlockLanes; i++ {
		l := lens[min(i, len(lens)-1)]
		row := vecInputs(l, flavour, seed+uint64(min(i, len(lens)-1)))
		for r := 0; r < n; r++ {
			v := NegInf
			if r < l {
				v = row[r]
			}
			blk[r*BlockLanes+i] = v
		}
	}
	return blk
}
