package kvcache

import (
	"testing"

	"specinfer/internal/freelist"
	"specinfer/internal/tensor"
)

func testArena(pageRows int) (*Arena, Config) {
	cfg := Config{Layers: 2, Heads: 3, HeadDim: 4, PageRows: pageRows}
	return New(cfg), cfg
}

// fillRows appends n positions of deterministic pseudo-random rows to
// every layer and advances, returning the hidden-wide rows appended per
// layer ([layer][pos][hidden]) for later comparison.
func fillRows(a *Arena, cfg Config, rng *tensor.RNG, n int) (k, v [][][]float32) {
	hidden := cfg.Heads * cfg.HeadDim
	k = make([][][]float32, cfg.Layers)
	v = make([][][]float32, cfg.Layers)
	for i := 0; i < n; i++ {
		for l := 0; l < cfg.Layers; l++ {
			kr := make([]float32, hidden)
			vr := make([]float32, hidden)
			rng.FillNormal(kr, 1)
			rng.FillNormal(vr, 1)
			k[l] = append(k[l], kr)
			v[l] = append(v[l], vr)
			a.Append(l, kr, vr)
		}
		a.Advance(1)
	}
	return k, v
}

// TestRowRoundTrip is the layout-equivalence check against the old
// per-position slice cache: every head segment read back from the paged
// arena must be bitwise identical to the corresponding slice of the
// hidden-wide row that was appended.
func TestRowRoundTrip(t *testing.T) {
	for _, pageRows := range []int{1, 3, 4, 64} {
		a, cfg := testArena(pageRows)
		rng := tensor.NewRNG(41)
		k, v := fillRows(a, cfg, rng, 13)
		if a.Len() != 13 {
			t.Fatalf("pageRows %d: Len %d != 13", pageRows, a.Len())
		}
		for l := 0; l < cfg.Layers; l++ {
			for pos := 0; pos < 13; pos++ {
				for h := 0; h < cfg.Heads; h++ {
					wantK := k[l][pos][h*cfg.HeadDim : (h+1)*cfg.HeadDim]
					wantV := v[l][pos][h*cfg.HeadDim : (h+1)*cfg.HeadDim]
					gotK := a.KRow(l, h, pos)
					gotV := a.VRow(l, h, pos)
					for d := 0; d < cfg.HeadDim; d++ {
						if gotK[d] != wantK[d] || gotV[d] != wantV[d] {
							t.Fatalf("pageRows %d: (l%d h%d pos%d d%d) round-trip mismatch",
								pageRows, l, h, pos, d)
						}
					}
				}
			}
		}
	}
}

// TestPageBoundaries pins the exactly-full and one-over cases: appending
// exactly PageRows positions must produce one page per (layer, head), and
// one more position must open a second page holding a single row.
func TestPageBoundaries(t *testing.T) {
	a, cfg := testArena(4)
	rng := tensor.NewRNG(7)
	fillRows(a, cfg, rng, 4) // exactly one full page
	if got := len(a.KPages(0, 0)); got != 1 {
		t.Fatalf("exactly-full: %d pages, want 1", got)
	}
	k, v := fillRows(a, cfg, rng, 1) // one over
	if got := len(a.KPages(0, 0)); got != 2 {
		t.Fatalf("one-over: %d pages, want 2", got)
	}
	// The overflow row must be the first row of the second pages: the
	// first key of every dimension's run, and the first value row.
	kPage, vPage := a.KPages(1, 2)[1], a.VPages(1, 2)[1]
	want := k[1][0][2*cfg.HeadDim : 3*cfg.HeadDim]
	for d := range want {
		if kPage[d*a.PageRows()] != want[d] {
			t.Fatal("overflow key not at the start of the new page")
		}
	}
	wantV := v[1][0][2*cfg.HeadDim : 3*cfg.HeadDim]
	for d := range wantV {
		if vPage[d] != wantV[d] {
			t.Fatal("overflow value not at the start of the new page")
		}
	}
	if a.Len() != 5 {
		t.Fatalf("Len %d != 5", a.Len())
	}
}

// TestGrow exercises many page boundaries in one arena and checks page
// counts and Bytes accounting.
func TestGrow(t *testing.T) {
	a, cfg := testArena(8)
	rng := tensor.NewRNG(11)
	fillRows(a, cfg, rng, 50) // 6 full pages + 2 rows
	wantPages := 7
	for l := 0; l < cfg.Layers; l++ {
		for h := 0; h < cfg.Heads; h++ {
			if len(a.KPages(l, h)) != wantPages || len(a.VPages(l, h)) != wantPages {
				t.Fatalf("(l%d h%d): %d/%d pages, want %d",
					l, h, len(a.KPages(l, h)), len(a.VPages(l, h)), wantPages)
			}
		}
	}
	wantBytes := cfg.Layers * cfg.Heads * 2 * wantPages * 8 * cfg.HeadDim * 4
	if a.Bytes() != wantBytes {
		t.Fatalf("Bytes %d != %d", a.Bytes(), wantBytes)
	}
}

func TestRelease(t *testing.T) {
	a, cfg := testArena(4)
	rng := tensor.NewRNG(3)
	fillRows(a, cfg, rng, 9)
	a.Release()
	if a.Len() != 0 || a.Bytes() != 0 {
		t.Fatalf("after Release: Len %d Bytes %d, want 0/0", a.Len(), a.Bytes())
	}
	if pages := a.KPages(0, 0); len(pages) != 0 {
		t.Fatalf("after Release: %d pages retained", len(pages))
	}
	// The arena must be reusable.
	k, _ := fillRows(a, cfg, rng, 2)
	if a.Len() != 2 {
		t.Fatalf("post-Release Len %d != 2", a.Len())
	}
	got := a.KRow(0, 0, 1)
	want := k[0][1][:cfg.HeadDim]
	for d := range want {
		if got[d] != want[d] {
			t.Fatal("post-Release round-trip mismatch")
		}
	}
}

func TestAdvanceInvariants(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	a, cfg := testArena(4)
	hidden := cfg.Heads * cfg.HeadDim
	row := make([]float32, hidden)
	mustPanic("uneven layers", func() {
		a.Append(0, row, row) // layer 1 received nothing
		a.Advance(1)
	})
	b, _ := testArena(4)
	mustPanic("wrong count", func() {
		b.Append(0, row, row)
		b.Append(1, row, row)
		b.Advance(2)
	})
	c, _ := testArena(4)
	mustPanic("bad layer", func() { c.Append(5, row, row) })
	mustPanic("bad row length", func() { c.Append(0, row[:3], row[:3]) })
	mustPanic("read past committed", func() {
		d, _ := testArena(4)
		d.Append(0, row, row)
		d.Append(1, row, row)
		d.KRow(0, 0, 0) // appended but not advanced
	})
	mustPanic("bad geometry", func() { New(Config{Layers: 0, Heads: 1, HeadDim: 2}) })
	mustPanic("negative page rows", func() { New(Config{Layers: 1, Heads: 1, HeadDim: 2, PageRows: -1}) })
}

// TestKPagesSlicingMath documents the read-path contract the transformer
// relies on: key element d of position p of (layer, head) lives at
// KPages[p/PageRows][d*PageRows+p%PageRows] (dim-major), and its value
// element at VPages[p/PageRows][(p%PageRows)*HeadDim+d] (position-major).
func TestKPagesSlicingMath(t *testing.T) {
	a, cfg := testArena(4)
	rng := tensor.NewRNG(23)
	k, v := fillRows(a, cfg, rng, 11)
	pr := a.PageRows()
	for pos := 0; pos < 11; pos++ {
		kPage := a.KPages(1, 1)[pos/pr]
		vPage := a.VPages(1, 1)[pos/pr]
		wantK := k[1][pos][1*cfg.HeadDim : 2*cfg.HeadDim]
		wantV := v[1][pos][1*cfg.HeadDim : 2*cfg.HeadDim]
		for d := 0; d < cfg.HeadDim; d++ {
			if kPage[d*pr+pos%pr] != wantK[d] {
				t.Fatalf("pos %d dim %d: key slicing contract broken", pos, d)
			}
			if vPage[(pos%pr)*a.HeadDim()+d] != wantV[d] {
				t.Fatalf("pos %d dim %d: value slicing contract broken", pos, d)
			}
		}
	}
}

// TestKeyPagesAcrossBoundaries appends positions one at a time across
// several page boundaries, at head dims 1, 8 and 16 and page sizes that
// do and do not divide the run, and reads every committed position back
// through KRow and VRow after each Advance: a dim-major write that
// strays into a neighbouring position's or dimension's slot shows as a
// changed earlier row.
func TestKeyPagesAcrossBoundaries(t *testing.T) {
	for _, hd := range []int{1, 8, 16} {
		for _, pageRows := range []int{1, 3, 16, 64} {
			cfg := Config{Layers: 2, Heads: 2, HeadDim: hd, PageRows: pageRows}
			a := New(cfg)
			rng := tensor.NewRNG(uint64(hd*100 + pageRows))
			n := 2*pageRows + 5
			var k, v [][][]float32
			for i := 0; i < n; i++ {
				ki, vi := fillRows(a, cfg, rng, 1)
				for l := range ki {
					if i == 0 {
						k, v = append(k, nil), append(v, nil)
					}
					k[l], v[l] = append(k[l], ki[l][0]), append(v[l], vi[l][0])
				}
				for pos := 0; pos <= i; pos++ {
					for l := 0; l < cfg.Layers; l++ {
						for h := 0; h < cfg.Heads; h++ {
							gotK, gotV := a.KRow(l, h, pos), a.VRow(l, h, pos)
							for d := 0; d < hd; d++ {
								if gotK[d] != k[l][pos][h*hd+d] || gotV[d] != v[l][pos][h*hd+d] {
									t.Fatalf("hd %d pageRows %d, after %d appends: (l%d h%d pos%d d%d) mismatch",
										hd, pageRows, i+1, l, h, pos, d)
								}
							}
						}
					}
				}
			}
			if want := (n + pageRows - 1) / pageRows; len(a.KPages(1, 1)) != want {
				t.Fatalf("hd %d pageRows %d: %d key pages, want %d", hd, pageRows, len(a.KPages(1, 1)), want)
			}
			a.Release()
		}
	}
}

func TestDefaultPageRows(t *testing.T) {
	a := New(Config{Layers: 1, Heads: 1, HeadDim: 2})
	if a.PageRows() != DefaultPageRows {
		t.Fatalf("default PageRows %d != %d", a.PageRows(), DefaultPageRows)
	}
}

// TestFreePagesTrimIdle: each new arena ticks its page list, so after a
// burst of arenas releases its pages, arenas that come one at a time
// leave about one arena's pages in the list, not the burst's.
func TestFreePagesTrimIdle(t *testing.T) {
	// A page length no other test uses.
	cfg := Config{Layers: 2, Heads: 3, HeadDim: 7, PageRows: 2}
	free := pageList(cfg.PageRows * cfg.HeadDim)
	rng := tensor.NewRNG(3)
	perArena := 2 * cfg.Layers * cfg.Heads // one K and one V page per stream
	var burst []*Arena
	for i := 0; i < 8; i++ {
		a := New(cfg)
		fillRows(a, cfg, rng, cfg.PageRows)
		burst = append(burst, a)
	}
	for _, a := range burst {
		a.Release()
	}
	if n := free.Len(); n != 8*perArena {
		t.Fatalf("free list holds %d pages after the burst, want %d", n, 8*perArena)
	}
	for i := 0; i < 2*freelist.Window; i++ {
		a := New(cfg)
		fillRows(a, cfg, rng, cfg.PageRows)
		a.Release()
	}
	if n := free.Len(); n > perArena {
		t.Fatalf("free list holds %d pages after one arena at a time, want at most %d", n, perArena)
	}
}
