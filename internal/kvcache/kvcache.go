// Package kvcache implements the paged, head-major KV-cache arena the
// transformer substrate commits verified tokens into (SpecInfer §4.2: the
// tree verifier shares one depth-first-ordered KV cache across all
// speculated branches, so the committed prefix is a single append-only
// sequence of positions).
//
// Layout: for every (layer, head) pair the arena keeps two page lists —
// one for keys, one for values. A page is a fixed-size contiguous
// []float32 holding PageRows consecutive positions of that head
// (PageRows × HeadDim floats). Value pages are position-major: position
// r of a page is page[r*HeadDim:][:HeadDim]. Key pages are dim-major:
// element k of position r is page[k*PageRows+r], so one row of a key
// page holds one dimension of PageRows consecutive keys, and a one-row
// score pass multiplies a broadcast query element into whole vectors of
// keys without transposing them (DESIGN.md §27). Appending a position
// copies each head's segment of the hidden-wide rows into the current
// pages; reading the committed context for one head therefore touches
// at most ceil(n/PageRows) contiguous slices instead of n heap-scattered
// per-position rows. This head-major layout is what makes the verifier's
// cached-segment attention stream sequentially: with H heads a
// position-major row interleaves the heads, so a per-head score pass
// reads only 1/H of every cache line it pulls.
//
// The arena is append-only between Release calls, matching the serving
// engine's lifecycle: commits only ever extend the depth-first prefix,
// and the whole cache is dropped page-wise when the request retires. It
// is not safe for concurrent mutation; concurrent reads are safe once a
// position has been advanced. Arenas recycle each other's released
// pages through a process-wide free list per page length.
package kvcache

import (
	"fmt"
	"sync"

	"specinfer/internal/freelist"
)

// DefaultPageRows is the default number of positions per page. 64
// positions × a typical head dim keeps a page comfortably inside L1/L2
// while amortizing the page-allocation bookkeeping to once per 64
// commits per (layer, head).
const DefaultPageRows = 64

// Config describes the geometry of an Arena.
type Config struct {
	Layers, Heads, HeadDim int
	// PageRows is the number of positions per page; 0 means
	// DefaultPageRows.
	PageRows int
}

// freePages holds the process's free KV pages, one free list per page
// length (PageRows × HeadDim floats), so every arena of every model
// recycles the pages of the others with the same geometry. A released
// arena returns only its private pages: pages adopted from a prefix
// cache, and pages a PrefixCache.Insert aliased, stay with the cache
// (see Arena.Release). Pages come back with stale contents, which is
// safe because an arena reads no row it has not written. Each new arena
// ticks its list, which trims the pages a window of arenas left idle.
var freePages struct {
	mu    sync.Mutex
	byLen map[int]*freelist.List[[]float32] // guarded by mu
}

// pageList returns the free list of pages of size floats.
func pageList(size int) *freelist.List[[]float32] {
	freePages.mu.Lock()
	defer freePages.mu.Unlock()
	l := freePages.byLen[size]
	if l == nil {
		if freePages.byLen == nil {
			freePages.byLen = make(map[int]*freelist.List[[]float32])
		}
		l = new(freelist.List[[]float32])
		freePages.byLen[size] = l
	}
	return l
}

// Arena is a paged, head-major KV cache. See the package comment for the
// layout.
type Arena struct {
	layers, heads, hd, pageRows int
	n                           int   // committed positions (uniform across layers)
	fill                        []int // rows appended per layer, ahead of n during a commit
	k, v                        [][][]float32
	// sharedPages is the number of leading pages per stream aliased
	// read-only from a PrefixCache (see AdoptPrefix). Appends never land
	// in them: fill starts past the shared region and the boundary page,
	// if partially filled, is a private copy.
	sharedPages int
	// published is the number of leading pages per stream a
	// PrefixCache.Insert has aliased into its trie. The cache keeps
	// reading them after this arena's Release, so they never go back to
	// the free list. Insert and Release both run with the arena quiescent
	// (Insert reads the page lists too), so a plain field suffices.
	published int
	free      *freelist.List[[]float32] // the free pages of this arena's page length
}

// New allocates an empty arena (no pages are allocated until the first
// Append).
func New(cfg Config) *Arena {
	if cfg.Layers <= 0 || cfg.Heads <= 0 || cfg.HeadDim <= 0 {
		panic(fmt.Sprintf("kvcache: invalid geometry %d layers, %d heads, headDim %d",
			cfg.Layers, cfg.Heads, cfg.HeadDim))
	}
	if cfg.PageRows < 0 {
		panic(fmt.Sprintf("kvcache: negative PageRows %d", cfg.PageRows))
	}
	if cfg.PageRows == 0 {
		cfg.PageRows = DefaultPageRows
	}
	a := &Arena{
		layers: cfg.Layers, heads: cfg.Heads, hd: cfg.HeadDim,
		pageRows: cfg.PageRows,
		fill:     make([]int, cfg.Layers),
		k:        make([][][]float32, cfg.Layers*cfg.Heads),
		v:        make([][][]float32, cfg.Layers*cfg.Heads),
		free:     pageList(cfg.PageRows * cfg.HeadDim),
	}
	a.free.Tick()
	return a
}

// newPage returns a free page, recycled or new. Its contents are stale.
func (a *Arena) newPage() []float32 {
	if p, ok := a.free.Get(); ok {
		return p
	}
	return make([]float32, a.pageRows*a.hd)
}

// Len reports the number of committed positions.
func (a *Arena) Len() int { return a.n }

// PageRows reports the positions-per-page of this arena.
func (a *Arena) PageRows() int { return a.pageRows }

// HeadDim reports the per-head vector length.
func (a *Arena) HeadDim() int { return a.hd }

// Append copies one position's head-interleaved K and V rows (head h at
// [h*HeadDim:(h+1)*HeadDim]) into layer's pages. Every layer must receive
// the same number of appended rows before the positions are made visible
// with Advance; Append alone does not change Len.
func (a *Arena) Append(layer int, kRow, vRow []float32) {
	if layer < 0 || layer >= a.layers {
		panic(fmt.Sprintf("kvcache: layer %d out of range (%d layers)", layer, a.layers))
	}
	if len(kRow) != a.heads*a.hd || len(vRow) != a.heads*a.hd {
		panic(fmt.Sprintf("kvcache: row length %d/%d != heads*headDim %d",
			len(kRow), len(vRow), a.heads*a.hd))
	}
	row := a.fill[layer]
	a.fill[layer]++
	page, r := row/a.pageRows, row%a.pageRows
	for h := 0; h < a.heads; h++ {
		s := layer*a.heads + h
		if page == len(a.k[s]) {
			a.k[s] = append(a.k[s], a.newPage())
			a.v[s] = append(a.v[s], a.newPage())
		}
		kp := a.k[s][page]
		for k, x := range kRow[h*a.hd : (h+1)*a.hd] {
			kp[k*a.pageRows+r] = x
		}
		copy(a.v[s][page][r*a.hd:][:a.hd], vRow[h*a.hd:(h+1)*a.hd])
	}
}

// Advance makes nNew appended positions visible to readers. It panics if
// any layer has not received exactly nNew rows since the last Advance —
// the invariant that keeps every layer's cache the same length.
func (a *Arena) Advance(nNew int) {
	if nNew < 0 {
		panic(fmt.Sprintf("kvcache: negative Advance %d", nNew))
	}
	for l, f := range a.fill {
		if f != a.n+nNew {
			panic(fmt.Sprintf("kvcache: Advance(%d) with layer %d holding %d rows (committed %d)",
				nNew, l, f, a.n))
		}
	}
	a.n += nNew
}

// KPages returns the page list holding (layer, head)'s keys, dim-major:
// element k of position p lives at pages[p/PageRows][k*PageRows+p%PageRows],
// so a page is HeadDim runs of PageRows keys' elements, each run a
// stride of PageRows floats from the last. Only the first Len() positions
// are valid, and the last page is partially filled unless Len() is a
// multiple of PageRows. The returned slice aliases arena storage and
// must not be mutated.
func (a *Arena) KPages(layer, head int) [][]float32 { return a.k[layer*a.heads+head] }

// VPages returns the page list holding (layer, head)'s values,
// position-major: position p lives at
// pages[p/PageRows][(p%PageRows)*HeadDim:][:HeadDim]. The same validity
// and aliasing rules as KPages apply.
func (a *Arena) VPages(layer, head int) [][]float32 { return a.v[layer*a.heads+head] }

// KRow returns a copy of the key vector of one committed position for
// one head (length HeadDim). Key pages are dim-major, so no key vector
// is contiguous in page storage.
func (a *Arena) KRow(layer, head, pos int) []float32 {
	a.checkPos(pos)
	p := a.k[layer*a.heads+head][pos/a.pageRows]
	r := pos % a.pageRows
	row := make([]float32, a.hd)
	for k := range row {
		row[k] = p[k*a.pageRows+r]
	}
	return row
}

// VRow returns the value vector of one committed position for one head
// (length HeadDim, aliasing page storage).
func (a *Arena) VRow(layer, head, pos int) []float32 { return a.valueRow(layer, head, pos) }

func (a *Arena) valueRow(layer, head, pos int) []float32 {
	a.checkPos(pos)
	p := a.v[layer*a.heads+head][pos/a.pageRows]
	return p[(pos%a.pageRows)*a.hd:][:a.hd]
}

func (a *Arena) checkPos(pos int) {
	if pos < 0 || pos >= a.n {
		panic(fmt.Sprintf("kvcache: position %d out of committed range %d", pos, a.n))
	}
}

// Bytes reports the page storage currently held, in bytes (K and V),
// counting shared prefix pages as if privately owned (the per-request
// view; SharedBytes reports the portion actually deduplicated).
func (a *Arena) Bytes() int {
	pages := 0
	for s := range a.k {
		pages += len(a.k[s]) + len(a.v[s])
	}
	return pages * a.pageRows * a.hd * 4
}

// SharedBytes reports the portion of Bytes aliased read-only from a
// prefix cache rather than privately owned (0 for cold arenas).
func (a *Arena) SharedBytes() int {
	return a.sharedPages * a.layers * a.heads * 2 * a.pageRows * a.hd * 4
}

// Release frees every page and resets the arena to empty; the arena may
// be reused afterwards. Private pages go back to the free pages of their
// length for any arena to reuse. Pages adopted from a prefix cache, and
// pages a PrefixCache.Insert aliased, are merely un-referenced, never
// mutated or recycled, so releasing and reusing an arena whose prefix is
// still pinned (or cached) elsewhere is safe: the cache and other
// adopters keep reading the original page storage.
func (a *Arena) Release() {
	keep := max(a.sharedPages, a.published)
	for s := range a.k {
		for p := keep; p < len(a.k[s]); p++ {
			a.free.Put(a.k[s][p])
			a.free.Put(a.v[s][p])
		}
		clear(a.k[s])
		clear(a.v[s])
		a.k[s], a.v[s] = a.k[s][:0], a.v[s][:0]
	}
	for l := range a.fill {
		a.fill[l] = 0
	}
	a.n = 0
	a.sharedPages = 0
	a.published = 0
}
