package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The blocked attention kernels must give every lane the per-row
// kernels' bits: each test runs 1 to 9 rows (9 is a full block plus a
// one-row block) over key counts around the 8-key groups and the 64-row
// page, and compares bit patterns against Dot, SoftmaxMasked and
// accumRows row by row.

var (
	blockRowCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	blockKeyCounts = []int{0, 1, 7, 8, 63, 64, 65, 300}
)

// blockSpans splits rows into blocks of at most BlockLanes, as the
// transformer does, returning each block's first row and size.
func blockSpans(rows int) [][2]int {
	var spans [][2]int
	for r := 0; r < rows; r += BlockLanes {
		spans = append(spans, [2]int{r, min(BlockLanes, rows-r)})
	}
	return spans
}

// transposeBlock fills qT with the block's queries, lane i = q[first+i];
// lanes past the block repeat its last row.
func transposeBlock(qT []float32, q [][]float32, first, size int) {
	hd := len(qT) / BlockLanes
	for i := 0; i < BlockLanes; i++ {
		row := q[first+min(i, size-1)]
		for k := 0; k < hd; k++ {
			qT[k*BlockLanes+i] = row[k]
		}
	}
}

func TestDotBlockMatchesDot(t *testing.T) {
	scale := float32(1 / math.Sqrt(16))
	for _, rows := range blockRowCounts {
		for _, keys := range blockKeyCounts {
			for _, hd := range []int{2, 6, 8, 16, 32} {
				seed := uint64(rows*10000 + keys*100 + hd)
				q := make([][]float32, rows)
				for i := range q {
					q[i] = make([]float32, hd)
					fillSpecial(q[i], seed+uint64(i))
				}
				page := make([]float32, keys*hd+3) // a page may run past the keys read
				fillSpecial(page, seed+99)
				qT := make([]float32, hd*BlockLanes)
				out := make([]float32, keys*BlockLanes)
				for _, sp := range blockSpans(rows) {
					transposeBlock(qT, q, sp[0], sp[1])
					DotBlock(qT, page, keys, scale, out)
					for r := 0; r < keys; r++ {
						for i := 0; i < sp[1]; i++ {
							want := Dot(q[sp[0]+i], page[r*hd:][:hd]) * scale
							got := out[r*BlockLanes+i]
							if math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("rows %d keys %d hd %d: row %d key %d: %v (%#x), Dot gives %v (%#x)",
									rows, keys, hd, sp[0]+i, r, got, math.Float32bits(got), want, math.Float32bits(want))
							}
						}
					}
				}
			}
		}
	}
}

func TestSoftmaxBlockMatchesSoftmaxMasked(t *testing.T) {
	for _, flavour := range vecFlavours {
		for _, rows := range blockRowCounts {
			for _, keys := range blockKeyCounts {
				// Row i sees keys-rows+1+i keys (at least one), like the
				// in-pass segment of a causal block; the rest of its lane
				// is NegInf padding.
				lens := make([]int, rows)
				x := make([][]float32, rows)
				for i := range x {
					lens[i] = max(keys-rows+1+i, min(keys, 1))
					x[i] = vecInputs(lens[i], flavour, uint64(rows*1000+keys*10+i))
				}
				for _, sp := range blockSpans(rows) {
					n := lens[sp[0]+sp[1]-1]
					blk := make([]float32, n*BlockLanes)
					bl := lens[sp[0] : sp[0]+sp[1]]
					for i := 0; i < BlockLanes; i++ {
						row := sp[0] + min(i, sp[1]-1)
						for r := 0; r < n; r++ {
							v := NegInf
							if r < lens[row] {
								v = x[row][r]
							}
							blk[r*BlockLanes+i] = v
						}
					}
					SoftmaxBlock(blk, n, bl)
					for i := 0; i < sp[1]; i++ {
						row := sp[0] + i
						want := append([]float32(nil), x[row]...)
						SoftmaxMasked(want)
						got := make([]float32, n)
						for r := range got {
							got[r] = blk[r*BlockLanes+i]
						}
						what := fmt.Sprintf("%s rows %d keys %d row %d", flavour, rows, keys, row)
						requireSameFloat32s(t, got[:lens[row]], want, what)
						requireSameFloat32s(t, got[lens[row]:], make([]float32, n-lens[row]), what+" padding")
					}
				}
			}
		}
	}
}

// TestSoftmaxBlockScalarLanes checks the lane-by-lane loop that takes
// blocks with a non-finite maximum, and every block where the exp kernel
// is off, against SoftmaxMasked on normal and masked rows too.
func TestSoftmaxBlockScalarLanes(t *testing.T) {
	for _, flavour := range vecFlavours {
		for _, n := range blockKeyCounts[1:] {
			lens := make([]int, BlockLanes)
			blk := make([]float32, n*BlockLanes)
			rows := make([][]float32, BlockLanes)
			for i := range rows {
				lens[i] = n - i%3
				if lens[i] < 1 {
					lens[i] = n
				}
				rows[i] = vecInputs(lens[i], flavour, uint64(n*10+i))
				for r := 0; r < n; r++ {
					v := NegInf
					if r < lens[i] {
						v = rows[i][r]
					}
					blk[r*BlockLanes+i] = v
				}
			}
			softmaxBlock(blk, lens, false)
			for i, row := range rows {
				SoftmaxMasked(row)
				got := make([]float32, lens[i])
				for r := range got {
					got[r] = blk[r*BlockLanes+i]
				}
				requireSameFloat32s(t, got, row, fmt.Sprintf("%s n %d lane %d", flavour, n, i))
			}
		}
	}
}

func TestAccumBlockMatchesAccumRows(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, rows := range blockRowCounts {
		for _, keys := range blockKeyCounts {
			for _, hd := range []int{2, 6, 8, 12, 16, 32} {
				seed := uint64(rows*10000 + keys*100 + hd)
				w := make([][]float32, rows)
				for i := range w {
					w[i] = make([]float32, keys)
					fillSpecial(w[i], seed+uint64(i)) // ±0 weights included
				}
				if rows > 1 && keys > 0 {
					for i := range w { // one key every lane weighs
						w[i][keys/2] = 1
					}
				}
				page := make([]float32, keys*hd+3)
				fillSpecial(page, seed+99)
				if keys > 1 {
					// A skipped weight must not touch an infinite value:
					// 0·Inf would leave a NaN behind.
					w[0][0], page[0] = 0, float32(math.Inf(1))
				}
				want := make([][]float32, rows)
				for i := range want {
					want[i] = make([]float32, hd)
					fillSpecial(want[i], seed+200+uint64(i))
					want[i][0] = negZero // only a skipped row leaves a -0 accumulator alone
				}
				acc := make([]float32, hd*BlockLanes)
				blk := make([]float32, keys*BlockLanes)
				for _, sp := range blockSpans(rows) {
					for i := 0; i < BlockLanes; i++ {
						row := sp[0] + min(i, sp[1]-1)
						copy(acc[i*hd:(i+1)*hd], want[row])
						for r := 0; r < keys; r++ {
							blk[r*BlockLanes+i] = w[row][r]
						}
					}
					AccumBlock(blk, keys, page, acc, sp[1])
					for i := 0; i < sp[1]; i++ {
						row := sp[0] + i
						accumRows(w[row], page, hd, want[row])
						requireSameFloat32s(t, acc[i*hd:(i+1)*hd], want[row],
							fmt.Sprintf("rows %d keys %d hd %d row %d", rows, keys, hd, row))
					}
				}
			}
		}
	}
}

func TestBlockKernelsAllocFree(t *testing.T) {
	const keys, hd = 300, 16
	qT := vecInputs(hd*BlockLanes, "normal", 1)
	page := vecInputs(keys*hd, "normal", 2)
	x := make([]float32, keys*BlockLanes)
	acc := make([]float32, hd*BlockLanes)
	lens := make([]int, BlockLanes)
	for i := range lens {
		lens[i] = keys
	}
	for name, f := range map[string]func(){
		"DotBlock":      func() { DotBlock(qT, page, keys, 0.25, x) },
		"SoftmaxBlock":  func() { DotBlock(qT, page, keys, 0.25, x); SoftmaxBlock(x, keys, lens) },
		"SoftmaxBlock4": func() { DotBlock(qT, page, keys, 0.25, x); SoftmaxBlock(x, keys, lens[:4]) },
		"AccumBlock":    func() { AccumBlock(x, keys, page, acc, BlockLanes) },
		"AccumBlock4":   func() { AccumBlock(x, keys, page, acc, 4) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %v times per call", name, allocs)
		}
	}
}

// The block benchmarks time one block of eight rows over 288 keys at
// head dim 16, the prefix-fleet shape; the perRow sub-benchmarks run the
// same eight rows through the per-row kernels.

func BenchmarkDotBlock(b *testing.B) {
	const keys, hd = 288, 16
	qT := vecInputs(hd*BlockLanes, "normal", 1)
	page := vecInputs(keys*hd, "normal", 2)
	out := make([]float32, keys*BlockLanes)
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DotBlock(qT, page, keys, 0.25, out)
		}
	})
	b.Run("perRow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for l := 0; l < BlockLanes; l++ {
				DotRowsContig4(qT[l*hd:(l+1)*hd], page, out[l*keys:(l+1)*keys])
				Scale(0.25, out[l*keys:(l+1)*keys])
			}
		}
	})
}

func BenchmarkSoftmaxBlock(b *testing.B) {
	const keys = 288
	src := vecInputs(keys*BlockLanes, "normal", 3)
	x := make([]float32, len(src))
	lens := make([]int, BlockLanes)
	for i := range lens {
		lens[i] = keys
	}
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, src)
			SoftmaxBlock(x, keys, lens)
		}
	})
	b.Run("perRow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, src)
			for l := 0; l < BlockLanes; l++ {
				SoftmaxMasked(x[l*keys : (l+1)*keys])
			}
		}
	})
}

func BenchmarkAccumBlock(b *testing.B) {
	const keys, hd = 288, 16
	w := vecInputs(keys*BlockLanes, "normal", 4)
	page := vecInputs(keys*hd, "normal", 5)
	acc := make([]float32, hd*BlockLanes)
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AccumBlock(w, keys, page, acc, BlockLanes)
		}
	})
	b.Run("perRow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for l := 0; l < BlockLanes; l++ {
				AttnAccumContig(w[l*keys:(l+1)*keys], page, acc[l*hd:(l+1)*hd])
			}
		}
	})
}
