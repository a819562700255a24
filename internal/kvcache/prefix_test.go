package kvcache

import (
	"testing"

	"specinfer/internal/tensor"
)

// tokensN returns the token run [0, 1, ..., n-1] offset by base, so
// distinct bases give disjoint runs and equal bases give equal runs.
func tokensN(base, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = base + i
	}
	return out
}

// headRow extracts head h's segment of a hidden-wide row.
func headRow(row []float32, h, hd int) []float32 { return row[h*hd : (h+1)*hd] }

// checkPrefix verifies that the first n positions of arena a are
// bitwise identical to the donor rows k/v ([layer][pos][hidden]).
func checkPrefix(t *testing.T, a *Arena, cfg Config, k, v [][][]float32, n int) {
	t.Helper()
	for l := 0; l < cfg.Layers; l++ {
		for p := 0; p < n; p++ {
			for h := 0; h < cfg.Heads; h++ {
				kr := a.KRow(l, h, p)
				vr := a.VRow(l, h, p)
				wantK := headRow(k[l][p], h, cfg.HeadDim)
				wantV := headRow(v[l][p], h, cfg.HeadDim)
				for d := 0; d < cfg.HeadDim; d++ {
					if kr[d] != wantK[d] || vr[d] != wantV[d] {
						t.Fatalf("layer %d pos %d head %d dim %d: adopted K/V %v/%v != donor %v/%v",
							l, p, h, d, kr[d], vr[d], wantK[d], wantV[d])
					}
				}
			}
		}
	}
}

func TestPrefixLookupMissThenHit(t *testing.T) {
	c := NewPrefixCache(1 << 20)
	a, cfg := testArena(4)
	rng := tensor.NewRNG(1)
	toks := tokensN(0, 10) // 2 full pages + 2-row tail
	k, v := fillRows(a, cfg, rng, len(toks))

	if h := c.Lookup("llm", toks, len(toks)); h != nil {
		t.Fatalf("lookup on empty cache returned a hit of %d tokens", h.Len())
	}
	c.Insert("llm", toks, a)

	// Identical prompt, capped one short of full length: 2 pages match,
	// the 2-row tail does not fit under maxLen 9, so the match is 8.
	h := c.Lookup("llm", toks, len(toks)-1)
	if h == nil || h.Len() != 8 {
		t.Fatalf("capped lookup = %v, want 8-token hit", h)
	}
	h.Release()

	// Uncapped: pages + exact tail = all 10 tokens.
	h = c.Lookup("llm", toks, len(toks))
	if h == nil || h.Len() != 10 {
		t.Fatalf("full lookup = %v, want 10-token hit", h)
	}
	b := New(cfg)
	b.AdoptPrefix(h)
	if b.Len() != 10 {
		t.Fatalf("adopted arena Len = %d, want 10", b.Len())
	}
	checkPrefix(t, b, cfg, k, v, 10)
	h.Release()

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss, 1 insert", st)
	}
	if st.TokensShared != 18 {
		t.Fatalf("TokensShared = %d, want 8+10", st.TokensShared)
	}
	if st.Nodes != 2 || st.Tails != 1 {
		t.Fatalf("stats = %+v, want 2 nodes and 1 tail", st)
	}
}

// TestPrefixSubPagePromptsAreNotCached: a prompt shorter than one page
// has no full page to hang a tail on, so inserting it caches nothing —
// distinct short prompts must not grow the cache request by request —
// while a prompt of one page plus a remainder still caches its tail.
func TestPrefixSubPagePromptsAreNotCached(t *testing.T) {
	c := NewPrefixCache(1 << 20)
	rng := tensor.NewRNG(7)
	for i := 0; i < 20; i++ {
		a, cfg := testArena(4)
		toks := tokensN(100*i, 3) // distinct 3-token prompts, page = 4 rows
		fillRows(a, cfg, rng, len(toks))
		c.Insert("llm", toks, a)
		if h := c.Lookup("llm", toks, len(toks)); h != nil {
			t.Fatalf("sub-page prompt %d was cached: lookup hit %d tokens", i, h.Len())
		}
	}
	if st := c.Stats(); st.Tails != 0 || st.Nodes != 0 || st.Bytes != 0 || st.Inserts != 0 {
		t.Fatalf("after 20 sub-page prompts stats = %+v, want an empty cache", st)
	}

	a, cfg := testArena(4)
	toks := tokensN(5000, 6) // 1 page + 2-row tail
	k, v := fillRows(a, cfg, rng, len(toks))
	c.Insert("llm", toks, a)
	if st := c.Stats(); st.Nodes != 1 || st.Tails != 1 || st.Bytes == 0 {
		t.Fatalf("after a page-plus-remainder prompt stats = %+v, want 1 node and 1 tail", st)
	}
	h := c.Lookup("llm", toks, len(toks))
	if h == nil || h.Len() != 6 {
		t.Fatalf("lookup = %v, want the 6-token page+tail hit", h)
	}
	b := New(cfg)
	b.AdoptPrefix(h)
	checkPrefix(t, b, cfg, k, v, 6)
	h.Release()
}

func TestPrefixDivergentSuffixesShareLeadingPages(t *testing.T) {
	c := NewPrefixCache(1 << 20)
	a, cfg := testArena(4)
	rng := tensor.NewRNG(2)
	shared := tokensN(0, 8) // exactly 2 pages
	reqA := append(append([]int(nil), shared...), tokensN(100, 6)...)
	kA, vA := fillRows(a, cfg, rng, len(reqA))
	c.Insert("llm", reqA, a)

	// A different continuation of the same prefix matches only the
	// shared pages — not request A's suffix pages or tail.
	reqB := append(append([]int(nil), shared...), tokensN(200, 6)...)
	h := c.Lookup("llm", reqB, len(reqB)-1)
	if h == nil || h.Len() != 8 {
		t.Fatalf("divergent lookup = %v, want 8-token hit", h)
	}
	b := New(cfg)
	b.AdoptPrefix(h)
	checkPrefix(t, b, cfg, kA, vA, 8)

	// Shared pages are aliased, not copied: the adopted page is the
	// same allocation the donor committed into.
	if &b.k[0][0][0] != &a.k[0][0][0] {
		t.Fatal("adopted full page is a copy; want an alias of the donor page")
	}
	h.Release()
}

func TestPrefixTailIsCopiedFromBoundaryPage(t *testing.T) {
	c := NewPrefixCache(1 << 20)
	a, cfg := testArena(4)
	rng := tensor.NewRNG(3)
	toks := tokensN(0, 6) // 1 page + 2-row tail on the donor's boundary page
	k, v := fillRows(a, cfg, rng, len(toks))
	c.Insert("llm", toks, a)

	// The donor keeps appending into its boundary page (generated
	// tokens after the prompt) — the cached tail must not see them.
	fillRows(a, cfg, rng, 5)

	h := c.Lookup("llm", toks, len(toks))
	if h == nil || h.Len() != 6 {
		t.Fatalf("lookup = %v, want 6-token hit", h)
	}
	b := New(cfg)
	b.AdoptPrefix(h)
	checkPrefix(t, b, cfg, k, v, 6)
	// And the adopter's boundary page is private: appending beyond the
	// tail must not disturb the cache or the donor.
	fillRows(b, cfg, rng, 3)
	h2 := c.Lookup("llm", toks, len(toks))
	b2 := New(cfg)
	b2.AdoptPrefix(h2)
	checkPrefix(t, b2, cfg, k, v, 6)
	h.Release()
	h2.Release()
}

// TestPrefixReleaseThenReuseWithPinnedPrefix is the satellite safety
// check: an arena that adopted a shared prefix may be Released and
// reused while the prefix is still pinned (and cached) — the shared
// pages are merely dropped from the arena's page lists, never written,
// so other readers keep seeing the original rows.
func TestPrefixReleaseThenReuseWithPinnedPrefix(t *testing.T) {
	c := NewPrefixCache(1 << 20)
	a, cfg := testArena(4)
	rng := tensor.NewRNG(4)
	toks := tokensN(0, 8)
	k, v := fillRows(a, cfg, rng, len(toks))
	c.Insert("llm", toks, a)

	h := c.Lookup("llm", toks, len(toks))
	b := New(cfg)
	b.AdoptPrefix(h)
	if b.SharedBytes() == 0 {
		t.Fatal("adopted arena reports no shared bytes")
	}

	// Release and refill the adopter with UNRELATED rows while h is
	// still pinned; the donor's pages must be untouched.
	b.Release()
	if b.SharedBytes() != 0 {
		t.Fatalf("released arena still reports %d shared bytes", b.SharedBytes())
	}
	fillRows(b, cfg, rng, 12)

	h2 := c.Lookup("llm", toks, len(toks))
	if h2 == nil || h2.Len() != 8 {
		t.Fatalf("lookup after adopter reuse = %v, want 8-token hit", h2)
	}
	fresh := New(cfg)
	fresh.AdoptPrefix(h2)
	checkPrefix(t, fresh, cfg, k, v, 8)
	h.Release()
	h2.Release()
	h.Release() // idempotent
}

func TestPrefixLRUEvictionRespectsPinsAndBudget(t *testing.T) {
	// Geometry: 2 layers x 3 heads x headDim 4, pageRows 4 => one full
	// page entry is 6 streams * 2 (K+V) * 16 floats * 4 bytes = 768 B.
	const nodeBytes = 768
	c := NewPrefixCache(2 * nodeBytes)
	rng := tensor.NewRNG(5)

	insert := func(base int) []int {
		a, cfg := testArena(4)
		toks := tokensN(base, 4)
		fillRows(a, cfg, rng, 4)
		c.Insert("llm", toks, a)
		return toks
	}
	t1 := insert(100)
	t2 := insert(200)
	if st := c.Stats(); st.Bytes != 2*nodeBytes || st.Evictions != 0 {
		t.Fatalf("stats after 2 inserts = %+v, want %d bytes, 0 evictions", st, 2*nodeBytes)
	}

	// Pin t2, then insert a third entry: t1 (oldest unpinned) must go.
	h2 := c.Lookup("llm", t2, 4)
	if h2 == nil {
		t.Fatal("expected t2 hit")
	}
	t3 := insert(300)
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 2*nodeBytes {
		t.Fatalf("stats after eviction = %+v, want 1 eviction at %d bytes", st, 2*nodeBytes)
	}
	if h := c.Lookup("llm", t1, 4); h != nil {
		t.Fatalf("evicted t1 still hits (%d tokens)", h.Len())
	}
	for _, toks := range [][]int{t2, t3} {
		h := c.Lookup("llm", toks, 4)
		if h == nil {
			t.Fatalf("entry %v missing after eviction", toks[:1])
		}
		h.Release()
	}

	// With every surviving entry pinned, a new insert is itself the only
	// evictable entry and is sacrificed — pinned entries are never
	// dropped to make room.
	h3 := c.Lookup("llm", t3, 4)
	t4 := insert(400)
	st = c.Stats()
	if st.Bytes != 2*nodeBytes {
		t.Fatalf("stats after insert into fully-pinned cache = %+v, want %d bytes", st, 2*nodeBytes)
	}
	if h := c.Lookup("llm", t4, 4); h != nil {
		t.Fatalf("unpinned newcomer survived over pinned entries (%d tokens)", h.Len())
	}
	for _, toks := range [][]int{t2, t3} {
		h := c.Lookup("llm", toks, 4)
		if h == nil {
			t.Fatalf("pinned entry %v was evicted", toks[:1])
		}
		h.Release()
	}
	h2.Release()
	h3.Release()
}

func TestPrefixNamespacesAreIsolated(t *testing.T) {
	c := NewPrefixCache(1 << 20)
	a, cfg := testArena(4)
	rng := tensor.NewRNG(6)
	toks := tokensN(0, 8)
	fillRows(a, cfg, rng, len(toks))
	c.Insert("llm", toks, a)
	if h := c.Lookup("ssm0", toks, len(toks)); h != nil {
		t.Fatalf("cross-namespace lookup hit %d tokens", h.Len())
	}
}

func TestPrefixGuards(t *testing.T) {
	c := NewPrefixCache(1 << 20)
	a, cfg := testArena(4)
	rng := tensor.NewRNG(7)
	toks := tokensN(0, 8)
	fillRows(a, cfg, rng, len(toks))
	c.Insert("llm", toks, a)

	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	// Insert of more tokens than the arena holds.
	expectPanic("oversized insert", func() { c.Insert("llm", tokensN(0, 9), a) })
	// Geometry change within a namespace.
	expectPanic("geometry mismatch", func() {
		b := New(Config{Layers: 1, Heads: 1, HeadDim: 4, PageRows: 4})
		hidden := make([]float32, 4)
		for i := 0; i < 4; i++ {
			b.Append(0, hidden, hidden)
			b.Advance(1)
		}
		c.Insert("llm", tokensN(0, 4), b)
	})
	// Adoption into a non-empty arena.
	h := c.Lookup("llm", toks, len(toks))
	expectPanic("adopt into non-empty arena", func() { a.AdoptPrefix(h) })
	// Adoption of a released handle.
	h.Release()
	expectPanic("adopt released handle", func() { New(cfg).AdoptPrefix(h) })
}

// TestPrefixMatchCountsNothing: Match reports Lookup's length without
// pinning, counting or touching the LRU order.
func TestPrefixMatchCountsNothing(t *testing.T) {
	c := NewPrefixCache(1 << 20)
	a, cfg := testArena(4)
	toks := tokensN(0, 10)
	fillRows(a, cfg, tensor.NewRNG(3), len(toks))
	if n := c.Match("llm", toks, len(toks)); n != 0 {
		t.Fatalf("Match on empty cache = %d, want 0", n)
	}
	c.Insert("llm", toks, a)
	before := c.Stats()
	for _, maxLen := range []int{3, 4, 9, 10, 11} {
		want := 0
		if h := c.Lookup("llm", toks, maxLen); h != nil {
			want = h.Len()
			h.Release()
		}
		mid := c.Stats()
		if got := c.Match("llm", toks, maxLen); got != want {
			t.Fatalf("maxLen %d: Match = %d, Lookup = %d", maxLen, got, want)
		}
		if st := c.Stats(); st != mid {
			t.Fatalf("maxLen %d: Match changed stats %+v -> %+v", maxLen, mid, st)
		}
	}
	if st := c.Stats(); st.Hits+st.Misses != before.Hits+before.Misses+5 || st.Pinned != 0 {
		t.Fatalf("stats after lookups = %+v", st)
	}
}

// TestInsertedMatchAgreesWithInsert: for donor/prompt pairs sharing
// pages, tails, whole prompts or nothing, InsertedMatch equals what a
// Lookup finds after inserting the donor into an empty cache.
func TestInsertedMatchAgreesWithInsert(t *testing.T) {
	const pr = 4
	shared := tokensN(100, 3*pr+2) // three pages plus a two-token tail
	cases := []struct {
		name          string
		donor, prompt []int
	}{
		{"same prompt", shared, shared},
		{"prompt extends donor", shared, append(append([]int(nil), shared...), 7, 8)},
		{"donor extends prompt", append(append([]int(nil), shared...), 7, 8), shared},
		{"diverge in page 2", shared, append(append([]int(nil), shared[:pr+1]...), tokensN(900, 2*pr)...)},
		{"diverge in the tail", shared, append(append([]int(nil), shared[:3*pr+1]...), 5, 6, 7)},
		{"sub-page donor", shared[:pr-1], shared},
		{"one-page donor", shared[:pr], shared},
		{"unrelated", tokensN(500, 9), shared},
		{"empty donor", nil, shared},
	}
	for _, tc := range cases {
		for _, maxLen := range []int{len(tc.prompt) - 1, len(tc.prompt), pr, 2 * pr} {
			c := NewPrefixCache(1 << 20)
			if len(tc.donor) > 0 {
				a, cfg := testArena(pr)
				fillRows(a, cfg, tensor.NewRNG(9), len(tc.donor))
				c.Insert("llm", tc.donor, a)
			}
			want := 0
			if h := c.Lookup("llm", tc.prompt, maxLen); h != nil {
				want = h.Len()
				h.Release()
			}
			if got := InsertedMatch(tc.donor, tc.prompt, maxLen, pr); got != want {
				t.Errorf("%s, maxLen %d: InsertedMatch = %d, Lookup after Insert = %d", tc.name, maxLen, got, want)
			}
		}
	}
}

// TestRecycledPagesNeverAliasThePrefix: released arenas hand their
// private pages to the free list, and the arenas filled next write over
// them, so a page the prefix cache still reads must never reach it —
// neither a full prompt page the donor's Insert aliased nor a page an
// adopter shares. Donor and adopter are released, new arenas are filled
// from the free list (and past it), and a fresh adoption must still read
// the rows as they were at insert, bit for bit.
func TestRecycledPagesNeverAliasThePrefix(t *testing.T) {
	// A page length no other test uses, so the pages drawn below are
	// this test's releases or new ones.
	cfg := Config{Layers: 2, Heads: 3, HeadDim: 5, PageRows: 4}
	free := pageList(cfg.PageRows * cfg.HeadDim)
	c := NewPrefixCache(1 << 20)
	rng := tensor.NewRNG(7)
	toks := tokensN(0, 10) // 2 full pages + a 2-row tail

	donor := New(cfg)
	k, v := fillRows(donor, cfg, rng, len(toks))
	c.Insert("llm", toks, donor)
	adopter := New(cfg)
	h := c.Lookup("llm", toks, len(toks))
	if h == nil || h.Len() != len(toks) {
		t.Fatalf("lookup = %v, want a %d-token hit", h, len(toks))
	}
	adopter.AdoptPrefix(h)
	fillRows(adopter, cfg, rng, 7) // past the copied boundary page
	h.Release()

	// The two leading pages per stream are the cache's; the donor's
	// boundary page and the adopter's three private pages (its boundary
	// copy and the two its appends opened) go back to the free list.
	cached, released := map[*float32]bool{}, map[*float32]bool{}
	for _, a := range []*Arena{donor, adopter} {
		for s := range a.k {
			for p := range a.k[s] {
				set := released
				if p < 2 {
					set = cached
				}
				set[&a.k[s][p][0]], set[&a.v[s][p][0]] = true, true
			}
		}
	}
	if want := (1 + 3) * 2 * cfg.Layers * cfg.Heads; len(released) != want {
		t.Fatalf("%d private pages, want %d", len(released), want)
	}
	before := free.Len()
	donor.Release()
	adopter.Release()
	if n := free.Len() - before; n != len(released) {
		t.Fatalf("release added %d pages to the free list, want %d", n, len(released))
	}

	// The new arenas' ticks may trim part of the list, so only some
	// released pages must come back, and no cached one.
	reused := 0
	for i := 0; i < 3; i++ {
		a := New(cfg)
		fillRows(a, cfg, rng, 3*cfg.PageRows)
		for s := range a.k {
			for p := range a.k[s] {
				for _, pg := range [][]float32{a.k[s][p], a.v[s][p]} {
					if cached[&pg[0]] {
						t.Fatal("a page the prefix cache reads went back to the free list")
					}
					if released[&pg[0]] {
						reused++
					}
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("new arenas reused none of the released pages")
	}
	again := New(cfg)
	h2 := c.Lookup("llm", toks, len(toks))
	if h2 == nil || h2.Len() != len(toks) {
		t.Fatalf("second lookup = %v, want a %d-token hit", h2, len(toks))
	}
	defer h2.Release()
	again.AdoptPrefix(h2)
	checkPrefix(t, again, cfg, k, v, len(toks))
}

// TestPrefixWalksAllocateNothing: walking the trie encodes chunk keys
// into the cache's scratch, so Match and an Insert that adds nothing
// allocate nothing, and a Lookup hit allocates only its handle and
// page path.
func TestPrefixWalksAllocateNothing(t *testing.T) {
	c := NewPrefixCache(1 << 20)
	a, cfg := testArena(4)
	toks := tokensN(0, 10) // 2 full pages + 2-row tail
	fillRows(a, cfg, tensor.NewRNG(11), len(toks))
	c.Insert("llm", toks, a)

	if n := testing.AllocsPerRun(20, func() { c.Match("llm", toks, len(toks)) }); n != 0 {
		t.Errorf("Match allocated %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { c.Insert("llm", toks, a) }); n != 0 {
		t.Errorf("refreshing Insert allocated %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { c.Lookup("llm", toks, len(toks)).Release() }); n != 2 {
		t.Errorf("Lookup hit allocated %v times per call, want 2 (handle and path)", n)
	}
	if st := c.Stats(); st.Pinned != 0 || st.Inserts != 1 {
		t.Fatalf("after the runs: %d pinned, %d inserts; want 0 and 1", st.Pinned, st.Inserts)
	}
}

// TestPrefixAdoptAcrossCaches: an arena may adopt from a cache another
// arena's owner filled (a fleet guest adopting from its host replica's
// cache). The pages are the donor's bit for bit, and the geometry check
// is the handle's namespace geometry, whoever owns the cache: an arena
// of another geometry refuses the handle.
func TestPrefixAdoptAcrossCaches(t *testing.T) {
	host := NewPrefixCache(1 << 20)
	donor, cfg := testArena(4)
	toks := tokensN(0, 10)
	k, v := fillRows(donor, cfg, tensor.NewRNG(12), len(toks))
	host.Insert("llm", toks, donor)

	h := host.Lookup("llm", toks, len(toks))
	if h == nil || h.Len() != len(toks) {
		t.Fatalf("lookup = %v, want a %d-token hit", h, len(toks))
	}
	guest := New(cfg)
	guest.AdoptPrefix(h)
	checkPrefix(t, guest, cfg, k, v, len(toks))

	other := New(Config{Layers: cfg.Layers, Heads: cfg.Heads, HeadDim: 2 * cfg.HeadDim, PageRows: cfg.PageRows})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an arena of another geometry adopted the handle")
			}
		}()
		other.AdoptPrefix(h)
	}()
	guest.Release()
	h.Release()
	if st := host.Stats(); st.Pinned != 0 || st.Nodes != 2 || st.Tails != 1 {
		t.Fatalf("host cache after the guest released: %+v", st)
	}
}

// TestPrefixAdoptPartialTail inserts prompts that end part-way into a
// page, at head dims 8 and 16, and adopts them into fresh arenas: the
// tail's dim-major keys are compacted to a stride of its row count on
// insert and spread back to PageRows on adoption, so every adopted
// position, and every position the adopter appends after the tail, must
// read back as the donor's or its own rows.
func TestPrefixAdoptPartialTail(t *testing.T) {
	for _, hd := range []int{8, 16} {
		for _, tail := range []int{1, 3, 7} {
			cfg := Config{Layers: 2, Heads: 3, HeadDim: hd, PageRows: 8}
			c := NewPrefixCache(1 << 22)
			donor := New(cfg)
			rng := tensor.NewRNG(uint64(hd*10 + tail))
			toks := tokensN(0, 2*cfg.PageRows+tail)
			k, v := fillRows(donor, cfg, rng, len(toks))
			c.Insert("llm", toks, donor)
			// The donor keeps appending into its boundary page; the
			// cached tail must not see it.
			fillRows(donor, cfg, rng, cfg.PageRows)

			h := c.Lookup("llm", toks, len(toks))
			if h == nil || h.Len() != len(toks) {
				t.Fatalf("hd %d tail %d: lookup = %v, want a %d-token hit", hd, tail, h, len(toks))
			}
			b := New(cfg)
			b.AdoptPrefix(h)
			checkPrefix(t, b, cfg, k, v, len(toks))
			ownK, ownV := fillRows(b, cfg, rng, cfg.PageRows)
			for l := range ownK {
				k[l] = append(k[l][:len(toks)], ownK[l]...)
				v[l] = append(v[l][:len(toks)], ownV[l]...)
			}
			checkPrefix(t, b, cfg, k, v, b.Len())
			b.Release()
			h.Release()
			donor.Release()
		}
	}
}
