package tensor

import "testing"

// The contiguous-page kernels must be bit-identical to their per-row
// counterparts: same sequential reduction per element, only the storage
// layout differs.

func TestDotKeysBitExact(t *testing.T) {
	rng := NewRNG(99)
	for _, hd := range []int{1, 4, 16} {
		for _, rows := range []int{0, 1, 3, 4, 5, 17} {
			q := make([]float32, hd)
			page := make([]float32, rows*hd)
			rng.FillNormal(q, 1)
			rng.FillNormal(page, 1)
			got := make([]float32, rows)
			DotKeys(q, dimMajor(page, rows, hd, rows), rows, 1, got)
			for r := 0; r < rows; r++ {
				want := Dot(q, page[r*hd:(r+1)*hd])
				if got[r] != want {
					t.Fatalf("hd %d rows %d: row %d: %v != %v (bit-exactness broken)",
						hd, rows, r, got[r], want)
				}
			}
		}
	}
}

func TestAttnAccumContigBitExact(t *testing.T) {
	rng := NewRNG(123)
	for _, hd := range []int{1, 4, 16} {
		for _, rows := range []int{0, 1, 5, 30, 64} {
			scores := make([]float32, rows)
			page := make([]float32, rows*hd)
			rng.FillNormal(scores, 1)
			rng.FillNormal(page, 1)
			// Sprinkle exact zeros in the 30-row case: masked-softmax slots
			// are exactly 0 and must contribute no add at all. The 64-row
			// case keeps every weight nonzero to cover the register-blocked
			// fast path end to end.
			if rows != 64 {
				for r := 0; r < rows; r += 3 {
					scores[r] = 0
				}
			}
			got := make([]float32, hd)
			want := make([]float32, hd)
			rng.FillNormal(got, 1)
			copy(want, got)
			AttnAccumContig(scores, page, got)
			for r := 0; r < rows; r++ {
				if scores[r] != 0 {
					Axpy(scores[r], page[r*hd:(r+1)*hd], want)
				}
			}
			for d := 0; d < hd; d++ {
				if got[d] != want[d] {
					t.Fatalf("hd %d rows %d: dim %d: %v != %v (bit-exactness broken)",
						hd, rows, d, got[d], want[d])
				}
			}
		}
	}
}

func TestPagedKernelPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("DotKeys short page", func() {
		DotKeys(make([]float32, 4), make([]float32, 7), 2, 1, make([]float32, 2))
	})
	mustPanic("DotKeys more keys than the stride", func() {
		DotKeys(make([]float32, 4), make([]float32, 12), 2, 1, make([]float32, 3))
	})
	mustPanic("AttnAccumContig short page", func() {
		AttnAccumContig(make([]float32, 2), make([]float32, 7), make([]float32, 4))
	})
}

// Benchmarks of the contiguous-page kernels at attention shape (hd=16,
// 1024 cached rows, 64-row pages).

const (
	benchHD   = 16
	benchRows = 1024
	benchPgSz = 64
)

func benchPages() (q []float32, pages [][]float32, out []float32) {
	rng := NewRNG(7)
	q = make([]float32, benchHD)
	rng.FillNormal(q, 1)
	for p := 0; p < benchRows/benchPgSz; p++ {
		pg := make([]float32, benchPgSz*benchHD)
		rng.FillNormal(pg, 1)
		pages = append(pages, pg)
	}
	return q, pages, make([]float32, benchRows)
}

func BenchmarkDotKeys(b *testing.B) {
	q, pages, out := benchPages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p, o := 0, 0; o < benchRows; p++ {
			DotKeys(q, pages[p], benchPgSz, 0.25, out[o:o+benchPgSz])
			o += benchPgSz
		}
	}
}

func BenchmarkAttnAccumContig(b *testing.B) {
	_, pages, scores := benchPages()
	for i := range scores {
		scores[i] = 1.0 / benchRows
	}
	dst := make([]float32, benchHD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p, o := 0, 0; o < benchRows; p++ {
			AttnAccumContig(scores[o:o+benchPgSz], pages[p], dst)
			o += benchPgSz
		}
	}
}
