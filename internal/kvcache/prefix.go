package kvcache

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// PrefixCache is a cross-request cache of committed-prefix KV pages: a
// refcounted radix trie whose edges are full pages (PageRows tokens per
// edge, keyed by the exact token chunk) plus, per node, a set of
// partial-page "tails" for remainders shorter than one page. Requests
// that share a prompt prefix — system prompts, few-shot templates —
// re-run the prefill for identical tokens today; the trie lets a new
// session adopt the longest cached prefix read-only and compute only
// the novel suffix (SpecInfer §5's continuous batches are exactly the
// traffic where this redundancy dominates prefill cost).
//
// Sharing is safe because the arena is append-only between Release
// calls: a full page of prompt positions is immutable for the donor
// session's lifetime, so the trie aliases full pages without copying.
// The partially-filled boundary page is the one the donor keeps
// appending generated tokens into, so its remainder rows are COPIED at
// insert time (and copied again into a fresh page at adoption — the
// copy-on-write boundary). An adopting arena therefore never writes a
// byte any other arena can read.
//
// Entries are pinned while a live session holds them (Lookup pins,
// PinnedPrefix.Release unpins) and evicted least-recently-used when the
// byte budget is exceeded; pinned entries and interior nodes survive
// eviction, so the cache can transiently exceed the budget under
// extreme pin pressure.
//
// All methods are goroutine-safe behind one mutex; the critical
// sections are bookkeeping-only (no K/V data is copied under the lock
// except tail rows at insert).
type PrefixCache struct {
	mu       sync.Mutex
	maxBytes int64  // immutable after New
	bytes    int64  // guarded by mu
	clock    uint64 // guarded by mu (logical LRU clock; ticks once per touched entry)

	// roots is one trie per namespace. Namespaces isolate models that
	// share an engine (the LLM and each SSM cache prefixes of the same
	// token stream but with different geometry and different values).
	roots map[string]*prefixRoot // guarded by mu

	hits, misses, inserts, evictions uint64 // guarded by mu
	tokensShared, bytesShared        uint64 // guarded by mu

	// key is the scratch chunk keys are encoded into for map lookups
	// and comparisons, so a walk allocates nothing; only a new edge or
	// tail takes an owned copy (see keyOf).
	key []byte // guarded by mu
}

// prefixRoot is one namespace's trie: its fixed arena geometry plus the
// root node (which holds no pages of its own).
type prefixRoot struct {
	geom Config // PageRows normalized
	node *prefixNode
}

// prefixNode is one full-page edge of the trie: exactly PageRows tokens,
// with one K and one V page per (layer, head) stream aliasing (or
// originally donated by) the arena that inserted it.
type prefixNode struct {
	parent   *prefixNode
	key      string      // chunk key in parent.children
	k, v     [][]float32 // [layer*heads+head] one full page each; nil at the root
	children map[string]*prefixNode
	tails    []*prefixTail
	pins     int
	lastUsed uint64
	bytes    int64
}

// prefixTail is a copied partial-page remainder hanging off a node:
// rows tokens (< PageRows) whose K/V rows were copied out of the
// donor's boundary page, so the donor may keep appending to that page.
type prefixTail struct {
	owner    *prefixNode
	key      string // chunk key of the remainder tokens
	rows     int
	k, v     [][]float32 // [layer*heads+head] rows*HeadDim floats each; keys dim-major at stride rows
	pins     int
	lastUsed uint64
	bytes    int64
}

// PinnedPrefix is a pinned reference to a cached prefix: the page path
// plus an optional tail, held pinned (immune to eviction) until
// Release. Adopt it into an empty arena with Arena.AdoptPrefix.
type PinnedPrefix struct {
	c        *PrefixCache
	geom     Config
	path     []*prefixNode // full-page edges, root excluded
	tail     *prefixTail   // nil when the match ends on a page boundary
	n        int           // matched tokens: len(path)*PageRows + tail rows
	released bool
}

// Len reports the number of prefix tokens the handle covers.
func (h *PinnedPrefix) Len() int { return h.n }

// Release unpins the handle's entries, making them evictable again.
// Idempotent; the handle must not be adopted afterwards.
func (h *PinnedPrefix) Release() {
	if h == nil || h.released {
		return
	}
	h.released = true
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	for _, nd := range h.path {
		nd.pins--
	}
	if h.tail != nil {
		h.tail.pins--
	}
}

// PrefixStats is a point-in-time snapshot of the cache.
type PrefixStats struct {
	// Hits and Misses count Lookup outcomes; Inserts counts Insert
	// calls that added at least one new entry; Evictions counts evicted
	// entries (nodes and tails).
	Hits, Misses, Inserts, Evictions uint64
	// TokensShared and BytesShared accumulate, over all hits, the
	// prefix tokens and the KV bytes served from the cache instead of
	// recomputed.
	TokensShared, BytesShared uint64
	// Bytes is the storage currently accounted to the cache (full pages
	// plus tail copies); MaxBytes is the eviction budget.
	Bytes, MaxBytes int64
	// Nodes and Tails count live entries; Pinned counts entries with at
	// least one pin.
	Nodes, Tails, Pinned int
}

// HitRate returns Hits/(Hits+Misses), or 0 before the first lookup.
func (s PrefixStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Add returns the sum of two caches' stats, field by field: the stats
// of a fleet whose replicas each own a private cache.
func (s PrefixStats) Add(o PrefixStats) PrefixStats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Inserts += o.Inserts
	s.Evictions += o.Evictions
	s.TokensShared += o.TokensShared
	s.BytesShared += o.BytesShared
	s.Bytes += o.Bytes
	s.MaxBytes += o.MaxBytes
	s.Nodes += o.Nodes
	s.Tails += o.Tails
	s.Pinned += o.Pinned
	return s
}

// NewPrefixCache returns a cache that evicts least-recently-used
// unpinned entries once its storage exceeds maxBytes. maxBytes must be
// positive.
func NewPrefixCache(maxBytes int64) *PrefixCache {
	if maxBytes <= 0 {
		panic(fmt.Sprintf("kvcache: PrefixCache budget must be positive, got %d", maxBytes))
	}
	return &PrefixCache{maxBytes: maxBytes, roots: make(map[string]*prefixRoot)}
}

// Stats snapshots the cache counters.
func (c *PrefixCache) Stats() PrefixStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := PrefixStats{
		Hits: c.hits, Misses: c.misses, Inserts: c.inserts, Evictions: c.evictions,
		TokensShared: c.tokensShared, BytesShared: c.bytesShared,
		Bytes: c.bytes, MaxBytes: c.maxBytes,
	}
	for _, r := range c.roots {
		var walk func(nd *prefixNode)
		walk = func(nd *prefixNode) {
			if nd.parent != nil {
				st.Nodes++
				if nd.pins > 0 {
					st.Pinned++
				}
			}
			for _, t := range nd.tails {
				st.Tails++
				if t.pins > 0 {
					st.Pinned++
				}
			}
			for _, ch := range nd.children {
				walk(ch)
			}
		}
		walk(r.node)
	}
	return st
}

// appendChunkKey appends the chunk key encoding of tokens to b.
func appendChunkKey(b []byte, tokens []int) []byte {
	for _, t := range tokens {
		b = binary.LittleEndian.AppendUint64(b, uint64(t))
	}
	return b
}

// keyOf encodes tokens' chunk key into the cache's scratch. The result
// is valid until the next keyOf; index and compare with string(key),
// which the compiler does without a copy, and copy it to keep it.
//
//lint:holds c.mu
func (c *PrefixCache) keyOf(tokens []int) []byte {
	c.key = appendChunkKey(c.key[:0], tokens)
	return c.key
}

// ChunkKey exposes the trie's 8-byte-little-endian chunk encoding of a
// token run. The multi-replica router hashes the leading prompt chunk
// with exactly this encoding, so "requests whose prompts share a trie
// edge" and "requests the ring maps to the same replica" are the same
// equivalence classes — the property that makes prefix-affinity routing
// line up with per-replica prefix-cache contents.
func ChunkKey(tokens []int) string { return string(appendChunkKey(nil, tokens)) }

// tick advances the logical LRU clock.
//
//lint:holds c.mu
func (c *PrefixCache) tick() uint64 {
	c.clock++
	return c.clock
}

// Lookup finds the longest cached prefix of tokens, capped at maxLen
// tokens, and returns it pinned — or nil when nothing matches. Callers
// that need at least one novel token to compute (a prefill must produce
// the last token's distribution) pass maxLen = len(tokens)-1.
func (c *PrefixCache) Lookup(ns string, tokens []int, maxLen int) *PinnedPrefix {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, end, pages, tail, n := c.match(ns, tokens, maxLen)
	if n == 0 {
		c.misses++
		return nil
	}
	path := make([]*prefixNode, pages)
	for nd := end; nd.parent != nil; nd = nd.parent {
		pages--
		path[pages] = nd
	}
	h := &PinnedPrefix{c: c, geom: r.geom, path: path, tail: tail, n: n}
	var shared int64
	for _, nd := range path {
		nd.pins++
		nd.lastUsed = c.tick()
		shared += nd.bytes
	}
	if tail != nil {
		tail.pins++
		tail.lastUsed = c.tick()
		shared += tail.bytes
	}
	c.hits++
	c.tokensShared += uint64(n)
	c.bytesShared += uint64(shared)
	return h
}

// Match reports how many tokens Lookup would match right now, without
// pinning, touching the LRU clock or counting a hit or miss.
func (c *PrefixCache) Match(ns string, tokens []int, maxLen int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _, _, _, n := c.match(ns, tokens, maxLen)
	return n
}

// match walks ns's trie along tokens, capped at maxLen: the last
// full-page node matched (the root when none) and the number of pages
// to it, the longest exactly matching tail below it, and the matched
// length (0 on a miss). It allocates nothing.
//
//lint:holds c.mu
func (c *PrefixCache) match(ns string, tokens []int, maxLen int) (*prefixRoot, *prefixNode, int, *prefixTail, int) {
	if maxLen > len(tokens) {
		maxLen = len(tokens)
	}
	r := c.roots[ns]
	if r == nil {
		return nil, nil, 0, nil, 0
	}
	pr := r.geom.PageRows
	node := r.node
	i := 0
	for i+pr <= maxLen {
		ch := node.children[string(c.keyOf(tokens[i:i+pr]))]
		if ch == nil {
			break
		}
		node = ch
		i += pr
	}
	// A tail extends the match past the last full page, but only when
	// the remainder matches a cached tail exactly (tails are whole
	// entries, not prefixes — partial rows of a copied tail would need
	// their own refcounting for no real traffic pattern: remainders
	// shorter than a page are cheap to recompute).
	var tail *prefixTail
	for _, t := range node.tails {
		if t.rows <= maxLen-i && (tail == nil || t.rows > tail.rows) &&
			t.key == string(c.keyOf(tokens[i:i+t.rows])) {
			tail = t
		}
	}
	n := i
	if tail != nil {
		n += tail.rows
	}
	return r, node, i / pr, tail, n
}

// InsertedMatch reports how many tokens of tokens, capped at maxLen, a
// Lookup could match from the entries Insert(ns, donor, a) adds for an
// arena a with pageRows rows per page: the full pages the two runs
// share, plus the donor's whole run when Insert would cache its
// remainder as a tail and tokens continues past it. A caller that
// stages lookups before the inserts they could use (the serving
// engine's prefill phase) asks it whether waiting for the insert pays.
func InsertedMatch(donor, tokens []int, maxLen, pageRows int) int {
	if maxLen > len(tokens) {
		maxLen = len(tokens)
	}
	full := len(donor) / pageRows * pageRows
	n := 0
	for n+pageRows <= maxLen && n+pageRows <= full && slices.Equal(donor[n:n+pageRows], tokens[n:n+pageRows]) {
		n += pageRows
	}
	if n == full && full > 0 && len(donor) > full && len(donor) <= maxLen &&
		slices.Equal(donor[full:], tokens[full:len(donor)]) {
		n = len(donor)
	}
	return n
}

// Insert records tokens' KV prefix from a donor arena: full prompt
// pages are aliased into the trie (they are immutable until the donor's
// Release, and the trie keeps them alive past it), the partial
// remainder — the donor's append boundary — is copied; tokens shorter
// than one page leave the cache unchanged. Existing entries are
// refreshed, not duplicated. The arena must hold at least
// len(tokens) committed positions; its geometry fixes the namespace's
// geometry at first insert and must match thereafter.
//
// Safe to call while the donor keeps generating: only pages entirely
// covered by tokens are aliased, and the donor's appends never rewrite
// a committed position.
func (c *PrefixCache) Insert(ns string, tokens []int, a *Arena) {
	if a.Len() < len(tokens) {
		panic(fmt.Sprintf("kvcache: Insert of %d tokens from arena holding %d", len(tokens), a.Len()))
	}
	if len(tokens) == 0 {
		return
	}
	geom := Config{Layers: a.layers, Heads: a.heads, HeadDim: a.hd, PageRows: a.pageRows}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.roots[ns]
	if r == nil {
		r = &prefixRoot{geom: geom, node: &prefixNode{children: make(map[string]*prefixNode)}}
		c.roots[ns] = r
	} else if r.geom != geom {
		panic(fmt.Sprintf("kvcache: Insert geometry %+v != namespace %q geometry %+v", geom, ns, r.geom))
	}
	pr := geom.PageRows
	streams := geom.Layers * geom.Heads
	node := r.node
	added := false
	full := len(tokens) / pr
	for p := 0; p < full; p++ {
		key := c.keyOf(tokens[p*pr : (p+1)*pr])
		ch := node.children[string(key)]
		if ch == nil {
			ch = &prefixNode{
				parent: node, key: string(key),
				k:        make([][]float32, streams),
				v:        make([][]float32, streams),
				children: make(map[string]*prefixNode),
				bytes:    int64(streams) * 2 * int64(pr*geom.HeadDim) * 4,
			}
			for s := 0; s < streams; s++ {
				ch.k[s] = a.k[s][p]
				ch.v[s] = a.v[s][p]
			}
			node.children[ch.key] = ch
			c.bytes += ch.bytes
			added = true
		}
		ch.lastUsed = c.tick()
		node = ch
	}
	// Every full page is now, or already was, the trie's to read: the
	// donor's Release must not recycle it.
	a.published = max(a.published, full)
	// A tail is cached only below at least one full page. A root-level
	// tail could serve only a later prompt that starts with this whole
	// sub-page prompt and is longer, yet every distinct short prompt
	// would keep a copy, so the cache's bytes would grow with the
	// number of requests served.
	if rem := len(tokens) - full*pr; rem > 0 && full > 0 {
		key := c.keyOf(tokens[full*pr:])
		var tail *prefixTail
		for _, t := range node.tails {
			if t.key == string(key) {
				tail = t
				break
			}
		}
		if tail == nil {
			tail = &prefixTail{
				owner: node, key: string(key), rows: rem,
				k:     make([][]float32, streams),
				v:     make([][]float32, streams),
				bytes: int64(streams) * 2 * int64(rem*geom.HeadDim) * 4,
			}
			for s := 0; s < streams; s++ {
				tail.k[s] = make([]float32, rem*geom.HeadDim)
				copyKeys(tail.k[s], rem, a.k[s][full], pr, rem, geom.HeadDim)
				tail.v[s] = append([]float32(nil), a.v[s][full][:rem*geom.HeadDim]...)
			}
			node.tails = append(node.tails, tail)
			c.bytes += tail.bytes
			added = true
		}
		tail.lastUsed = c.tick()
	}
	if added {
		c.inserts++
		c.evict()
	}
}

// evict removes least-recently-used unpinned entries until the cache
// fits the budget. Tails are always evictable when unpinned; a node is
// evictable only as a leaf (no children, no tails), so interior pages
// of a live path are never dropped. When everything over budget is
// pinned, the cache transiently exceeds the budget rather than break a
// live adoption.
//
//lint:holds c.mu
func (c *PrefixCache) evict() {
	for c.bytes > c.maxBytes {
		nd, tl := c.oldestEvictable()
		switch {
		case tl != nil:
			tails := tl.owner.tails
			for i, t := range tails {
				if t == tl {
					tl.owner.tails = append(tails[:i], tails[i+1:]...)
					break
				}
			}
			c.bytes -= tl.bytes
		case nd != nil:
			delete(nd.parent.children, nd.key)
			c.bytes -= nd.bytes
		default:
			return // everything left is pinned or structural
		}
		c.evictions++
	}
}

// oldestEvictable scans every namespace for the unpinned entry with the
// smallest lastUsed stamp. The stamps are unique (the clock ticks per
// touched entry), so the choice — and therefore the whole eviction
// order — is deterministic despite map iteration.
//
//lint:holds c.mu
func (c *PrefixCache) oldestEvictable() (*prefixNode, *prefixTail) {
	var bestN *prefixNode
	var bestT *prefixTail
	best := uint64(0)
	consider := func(stamp uint64) bool { return bestN == nil && bestT == nil || stamp < best }
	for _, r := range c.roots {
		var walk func(nd *prefixNode)
		walk = func(nd *prefixNode) {
			for _, t := range nd.tails {
				if t.pins == 0 && consider(t.lastUsed) {
					bestN, bestT, best = nil, t, t.lastUsed
				}
			}
			if nd.parent != nil && nd.pins == 0 && len(nd.children) == 0 && len(nd.tails) == 0 &&
				consider(nd.lastUsed) {
				bestN, bestT, best = nd, nil, nd.lastUsed
			}
			for _, ch := range nd.children {
				walk(ch)
			}
		}
		walk(r.node)
	}
	return bestN, bestT
}

// AdoptPrefix initializes an empty arena from a pinned cached prefix:
// the handle's full pages are aliased read-only, and its tail (if any)
// is copied into a fresh private boundary page — the copy-on-write
// point, since the adopter will append its own rows right after the
// prefix. After adoption the arena reports Len() == h.Len() and behaves
// exactly as if the prefix had been appended position by position; all
// subsequent Appends land in private pages. The handle stays pinned
// (keeping the shared pages immune to eviction) and must outlive the
// arena's use of them — release it when the session closes.
func (a *Arena) AdoptPrefix(h *PinnedPrefix) {
	if h == nil || h.released {
		panic("kvcache: AdoptPrefix of a nil or released handle")
	}
	if h.n == 0 {
		panic("kvcache: AdoptPrefix of an empty prefix")
	}
	if a.n != 0 {
		panic(fmt.Sprintf("kvcache: AdoptPrefix into non-empty arena (%d committed)", a.n))
	}
	for l, f := range a.fill {
		if f != 0 {
			panic(fmt.Sprintf("kvcache: AdoptPrefix into arena with %d uncommitted rows in layer %d", f, l))
		}
	}
	geom := Config{Layers: a.layers, Heads: a.heads, HeadDim: a.hd, PageRows: a.pageRows}
	if geom != h.geom {
		panic(fmt.Sprintf("kvcache: AdoptPrefix geometry %+v != handle geometry %+v", geom, h.geom))
	}
	streams := a.layers * a.heads
	for s := 0; s < streams; s++ {
		k, v := a.k[s][:0], a.v[s][:0]
		for _, nd := range h.path {
			k = append(k, nd.k[s])
			v = append(v, nd.v[s])
		}
		if t := h.tail; t != nil {
			pk, pv := a.newPage(), a.newPage()
			copyKeys(pk, a.pageRows, t.k[s], t.rows, t.rows, a.hd)
			copy(pv, t.v[s])
			k = append(k, pk)
			v = append(v, pv)
		}
		a.k[s], a.v[s] = k, v
	}
	a.sharedPages = len(h.path)
	for l := range a.fill {
		a.fill[l] = h.n
	}
	a.n = h.n
}

// copyKeys copies the first rows keys of the dim-major run src, whose
// element k of key r is src[k*srcStride+r] for k < hd, into dst with
// stride dstStride. A cached tail keeps its keys at stride rows, an
// arena page at stride PageRows.
func copyKeys(dst []float32, dstStride int, src []float32, srcStride, rows, hd int) {
	for k := 0; k < hd; k++ {
		copy(dst[k*dstStride:][:rows], src[k*srcStride:][:rows])
	}
}
