package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The one-row pass kernels against their per-row oracles, bit for bit,
// on every tier: the dim-major dot against Dot, the side-by-side softmax
// against SoftmaxMasked (its float64 sums too: 1/sum's rounding to
// float32 hides most changes to their order from the outputs, and only
// the sum check catches an add out of order), and the side-by-side value
// accumulation against accumRows.

var (
	headsKeyCounts = []int{0, 1, 15, 16, 17, 63, 64, 65, 300}
	headsDims      = []int{1, 2, 6, 8, 16, 32}
)

// forAllTiers runs f on the scalar tier and on each vector tier the
// build and CPU have, the 512-bit one where has512.
func forAllTiers(t *testing.T, hasVec, has512 bool, f func(t *testing.T, tr tier)) {
	t.Helper()
	t.Run("scalar", func(t *testing.T) { f(t, scalarTier) })
	if !hasVec {
		return
	}
	forTiers(t, has512, f)
}

// specialRow returns n inputs: fillSpecial's ±0, subnormals and normal
// values, with ±Inf and NaN sprinkled in when specials is set.
func specialRow(n int, seed uint64, specials bool) []float32 {
	x := make([]float32, n)
	fillSpecial(x, seed)
	if specials {
		for i := range x {
			switch i % 23 {
			case 5:
				x[i] = float32(math.Inf(1))
			case 11:
				x[i] = float32(math.Inf(-1))
			case 17:
				x[i] = float32(math.NaN())
			}
		}
	}
	return x
}

func TestDotKeysTiersMatchDot(t *testing.T) {
	forAllTiers(t, hasPackedKernel, hasAVX512, func(t *testing.T, tr tier) {
		for _, rows := range headsKeyCounts {
			for _, hd := range headsDims {
				for _, specials := range []bool{false, true} {
					seed := uint64(rows*1000 + hd*10)
					q := specialRow(hd, seed, specials)
					page := specialRow(rows*hd, seed+1, specials)
					for _, stride := range []int{rows, rows + 5} {
						got := make([]float32, rows+1)
						got[rows] = 42 // past the keys: left alone
						dotKeys(q, dimMajor(page, rows, hd, stride), stride, 0.25, got[:rows], tr)
						want := make([]float32, rows+1)
						want[rows] = 42
						for r := 0; r < rows; r++ {
							want[r] = Dot(q, page[r*hd:][:hd]) * 0.25
						}
						what := fmt.Sprintf("tier %d rows %d hd %d stride %d specials %v", tr, rows, hd, stride, specials)
						for r, w := range want {
							// Where two NaNs meet in a chain the payload is the
							// first operand's, and the compiler picks Dot's
							// operand order (it differs under -race): any NaN
							// matches a NaN there.
							g := got[r]
							if math.Float32bits(g) != math.Float32bits(w) && !(math.IsNaN(float64(g)) && math.IsNaN(float64(w))) {
								t.Fatalf("%s: [%d] = %v (%#x), Dot gives %v (%#x)", what, r, g, math.Float32bits(g), w, math.Float32bits(w))
							}
						}
					}
				}
			}
		}
		q, keys, out := make([]float32, 16), make([]float32, 64*16), make([]float32, 61)
		if n := testing.AllocsPerRun(20, func() { dotKeys(q, keys, 64, 0.25, out, tr) }); n != 0 {
			t.Fatalf("tier %d DotKeys allocates %v times per call", tr, n)
		}
	})
}

// headsRows returns heads rows of n softmax inputs of the given flavour,
// back to back.
func headsRows(heads, n int, flavour string, seed uint64) []float32 {
	x := make([]float32, 0, heads*n)
	for h := 0; h < heads; h++ {
		x = append(x, vecInputs(n, flavour, seed+uint64(h))...)
	}
	return x
}

func TestSoftmaxHeadsMatchesSoftmaxMasked(t *testing.T) {
	forAllTiers(t, hasExpKernel, hasExp512, func(t *testing.T, tr tier) {
		for _, flavour := range vecFlavours {
			for _, n := range headsKeyCounts[1:] {
				for heads := 1; heads <= 2*HeadGroup+1; heads++ {
					seed := uint64(n*100 + heads)
					x := headsRows(heads, n, flavour, seed)
					got := append([]float32(nil), x...)
					softmaxHeads(got, n, tr)
					for h := 0; h < heads; h++ {
						want := append([]float32(nil), x[h*n:(h+1)*n]...)
						softmax(want, true, scalarTier)
						requireSameFloat32s(t, got[h*n:(h+1)*n], want,
							fmt.Sprintf("tier %d %s n %d heads %d head %d", tr, flavour, n, heads, h))
					}
					if tr != scalarTier && heads <= HeadGroup {
						requireHeadsSums(t, tr, x, n, heads, fmt.Sprintf("%s n %d heads %d", flavour, n, heads))
					}
				}
			}
		}
		x := headsRows(4, 300, "masked", 1)
		if n := testing.AllocsPerRun(20, func() { softmaxHeads(x, 300, tr) }); n != 0 {
			t.Fatalf("tier %d SoftmaxHeads allocates %v times per call", tr, n)
		}
	})
}

// requireHeadsSums runs the side-by-side exponential pass of tier tr, and
// each row's tail after it as softmaxGroup does, over the g rows of x at
// each row's maximum where that is finite and at 0.5 elsewhere, and
// requires the scalar chain's bits: every exponential, and every row's
// float64 sum.
func requireHeadsSums(t *testing.T, tr tier, x []float32, n, g int, what string) {
	t.Helper()
	var maxv [HeadGroup]float32
	for h := 0; h < g; h++ {
		maxv[h] = rowMax(x[h*n:][:n], scalarTier)
		if math.IsInf(float64(maxv[h]), 0) || math.IsNaN(float64(maxv[h])) {
			maxv[h] = 0.5
		}
	}
	got := append([]float32(nil), x...)
	m := maxv
	sums, i := expShiftHeads(got, n, g, &m, tr)
	for h := 0; h < g; h++ {
		row := got[h*n:][:n]
		j, sum := expShiftVec(row[i:], maxv[h], true, tr, sums[h])
		sum = expShift(row[i+j:], maxv[h], true, sum)
		want := append([]float32(nil), x[h*n:(h+1)*n]...)
		wantSum := expShift(want, maxv[h], true, 0)
		requireSameFloat32s(t, row, want, fmt.Sprintf("tier %d %s row %d exponentials", tr, what, h))
		// Two NaNs meeting in a sum keep the first operand's payload, and
		// Go may evaluate s += e as e + s: any NaN matches a NaN there.
		bothNaN := math.IsNaN(sum) && math.IsNaN(wantSum)
		if math.Float64bits(sum) != math.Float64bits(wantSum) && !bothNaN {
			t.Fatalf("tier %d %s row %d: sum %v (%#x), scalar chain gives %v (%#x)",
				tr, what, h, sum, math.Float64bits(sum), wantSum, math.Float64bits(wantSum))
		}
	}
}

func TestAccumHeadsMatchesAccumRows(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	forAllTiers(t, hasPackedKernel, hasAVX512, func(t *testing.T, tr tier) {
		for _, rows := range headsKeyCounts {
			for _, hd := range []int{1, 2, 6, 8, 12, 16, 17, 32} {
				for heads := 1; heads <= HeadGroup; heads++ {
					for _, dense := range []bool{false, true} {
						seed := uint64(rows*10000 + hd*100 + heads)
						var w, v, dst [HeadGroup][]float32
						want := make([][]float32, heads)
						for h := 0; h < heads; h++ {
							w[h] = make([]float32, rows+2)    // weights past the rows: ignored
							fillSpecial(w[h], seed+uint64(h)) // ±0 weights included
							if dense || h == 1 {
								// No ±0 weight, in every head or in one, so whole
								// blocks take the unconditional path, or the
								// masked one with some heads' adds all kept.
								for r, x := range w[h] {
									if x == 0 {
										w[h][r] = 1 + float32(r%7)/8
									}
								}
							}
							v[h] = make([]float32, rows*hd+hd) // a page may run past the rows read
							fillSpecial(v[h], seed+50+uint64(h))
							if rows > 1 && !dense {
								// A skipped weight must not touch an infinite
								// value: 0·Inf would leave a NaN behind.
								w[h][0], v[h][0] = negZero, float32(math.Inf(1))
							}
							dst[h] = make([]float32, hd)
							fillSpecial(dst[h], seed+90+uint64(h))
							dst[h][0] = negZero // only a skipped row leaves a -0 accumulator alone
							want[h] = append([]float32(nil), dst[h]...)
							accumRows(w[h][:rows], v[h], hd, want[h])
						}
						accumHeads(heads, rows, &w, &v, &dst, tr)
						for h := 0; h < heads; h++ {
							requireSameFloat32s(t, dst[h], want[h],
								fmt.Sprintf("tier %d rows %d hd %d heads %d dense %v head %d", tr, rows, hd, heads, dense, h))
						}
					}
				}
			}
		}
		var w, v, dst [HeadGroup][]float32
		for h := range w {
			w[h], v[h], dst[h] = make([]float32, 300), make([]float32, 300*16), make([]float32, 16)
		}
		if n := testing.AllocsPerRun(20, func() { accumHeads(HeadGroup, 300, &w, &v, &dst, tr) }); n != 0 {
			t.Fatalf("tier %d AccumHeads allocates %v times per call", tr, n)
		}
	})
}

func TestHeadsKernelPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("SoftmaxHeads ragged rows", func() { SoftmaxHeads(make([]float32, 7), 2) })
	mustPanic("SoftmaxHeads empty rows", func() { SoftmaxHeads(nil, 0) })
	var w, v, dst [HeadGroup][]float32
	for h := range w {
		w[h], v[h], dst[h] = make([]float32, 4), make([]float32, 16), make([]float32, 4)
	}
	mustPanic("AccumHeads of no heads", func() { AccumHeads(0, 4, &w, &v, &dst) })
	mustPanic("AccumHeads of five heads", func() { AccumHeads(5, 4, &w, &v, &dst) })
	mustPanic("AccumHeads short values", func() { AccumHeads(2, 5, &w, &v, &dst) })
	dst[1] = dst[1][:3]
	mustPanic("AccumHeads ragged outputs", func() { AccumHeads(2, 4, &w, &v, &dst) })
}

// The one-row pass kernels at prefix-fleet's shape: four heads of dim 16
// over 272 keys. The perRow sub-benchmarks run the same heads through the
// per-row kernels one at a time.

func BenchmarkSoftmaxHeads(b *testing.B) {
	const keys, heads = 272, 4
	src := headsRows(heads, keys, "normal", 3)
	x := make([]float32, len(src))
	b.Run("perRow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, src)
			for h := 0; h < heads; h++ {
				SoftmaxMasked(x[h*keys : (h+1)*keys])
			}
		}
	})
	for _, bt := range benchTiers()[1:] {
		b.Run(bt.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src)
				softmaxHeads(x, keys, bt.t)
			}
		})
	}
}

func BenchmarkAccumHeads(b *testing.B) {
	const keys, hd = 272, 16
	var w, v, dst [HeadGroup][]float32
	for h := range w {
		w[h], v[h], dst[h] = vecInputs(keys, "normal", uint64(h)), vecInputs(keys*hd, "normal", 9+uint64(h)), make([]float32, hd)
	}
	b.Run("perRow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for h := range w {
				AttnAccumContig(w[h], v[h], dst[h])
			}
		}
	})
	for _, bt := range []benchTier{{"kernel", panelTier}, {"avx2", avx2Tier}, {"avx512", avx512Tier}} {
		if bt.t == avx2Tier && !hasPackedKernel || bt.t == avx512Tier && !hasAVX512 {
			continue
		}
		b.Run(bt.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				accumHeads(HeadGroup, keys, &w, &v, &dst, bt.t)
			}
		})
	}
}

// TestDotBlockTiersMatchDot runs DotBlock's scalar loop, its AVX2 kernel
// and its 512-bit kernel (sixteen keys to a register, then AVX2 for the
// rest) over key counts around the sixteen-key groups, against Dot.
func TestDotBlockTiersMatchDot(t *testing.T) {
	forAllTiers(t, hasPackedKernel, hasAVX512, func(t *testing.T, tr tier) {
		for _, keys := range []int{1, 15, 16, 17, 31, 32, 33, 64, 300} {
			for _, hd := range []int{1, 2, 6, 16, 32} {
				for _, specials := range []bool{false, true} {
					seed := uint64(keys*100 + hd)
					page := specialRow(keys*hd, seed, specials)
					q := make([][]float32, BlockLanes)
					qT := make([]float32, hd*BlockLanes)
					for i := range q {
						q[i] = specialRow(hd, seed+1+uint64(i), specials)
					}
					transposeBlock(qT, q, 0, BlockLanes)
					stride := keys + 5
					out := make([]float32, keys*BlockLanes+1)
					out[keys*BlockLanes] = 42 // past the block: left alone
					dotBlockTier(qT, dimMajor(page, keys, hd, stride), stride, keys, 0.25, out[:keys*BlockLanes], tr)
					if out[keys*BlockLanes] != 42 {
						t.Fatalf("tier %d keys %d hd %d: wrote past the block", tr, keys, hd)
					}
					for r := 0; r < keys; r++ {
						for i := 0; i < BlockLanes; i++ {
							want := Dot(q[i], page[r*hd:][:hd]) * 0.25
							got := out[r*BlockLanes+i]
							// Two NaNs meeting keep the first operand's payload:
							// any NaN matches a NaN.
							if math.Float32bits(got) != math.Float32bits(want) && !(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
								t.Fatalf("tier %d keys %d hd %d specials %v: lane %d key %d: %v (%#x), Dot gives %v (%#x)",
									tr, keys, hd, specials, i, r, got, math.Float32bits(got), want, math.Float32bits(want))
							}
						}
					}
				}
			}
		}
	})
}
