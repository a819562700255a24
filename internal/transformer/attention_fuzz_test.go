package transformer

import (
	"math"
	"testing"

	"specinfer/internal/kvcache"
	"specinfer/internal/tensor"
)

// attnCase is one attention stage decoded from fuzz input: its geometry,
// mask bits and values.
type attnCase struct {
	heads, hd, nNew, nCached, nPrior, pageRows int
	selfMask                                   bool // the diagonal is fuzzed too, so rows can be fully masked
	// shared is the number of leading cached rows the arena adopts from
	// a prefix cache instead of appending: whole pages aliased, the
	// partial tail copied into a page of its own.
	shared int
	// qScale, when nonzero, scales the queries: small scores spread the
	// softmax's weight over every key, so each key's term shows in the
	// output's bits. plain turns the specials off, whose huge scores
	// would take all the weight.
	qScale float32
	plain  bool
	data   []byte
	pos    int
	state  uint64
}

// next returns the next input byte, continuing with a generator seeded
// by the input once it runs out.
func (c *attnCase) next() byte {
	if c.pos < len(c.data) {
		c.pos++
		return c.data[c.pos-1]
	}
	c.state ^= c.state << 13
	c.state ^= c.state >> 7
	c.state ^= c.state << 17
	return byte(c.state >> 56)
}

// attnSpecials are the values a byte below len(attnSpecials) selects:
// signed zeros, subnormals, values near float32's limits (whose dots
// overflow to ±Inf and NaN) and moderate magnitudes that push softmax
// arguments off the exp kernel's range.
var attnSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(0x400), 1e-38,
	math.MaxFloat32, -math.MaxFloat32, 1e19, -1e19, 3e3, -3e3, 40, -40,
}

// value decodes one float: a special, or a small value on a 1/32 grid.
func (c *attnCase) value() float32 {
	b := c.next()
	if int(b) < len(attnSpecials) && !c.plain {
		return attnSpecials[b]
	}
	return (float32(b) - 140) / 32
}

func (c *attnCase) fill(x []float32) {
	for i := range x {
		x[i] = c.value()
	}
}

// bits decodes an n-bit mask, each bit set with probability 3/4.
func (c *attnCase) bits(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = c.next()&3 != 0
	}
	return m
}

func decodeAttnCase(data []byte) *attnCase {
	c := newAttnCase(data)
	c.hd = []int{8, 16, 32, 128}[c.next()%4]
	c.heads = 1 + int(c.next()%2)
	c.nNew = 1 + int(c.next()%24)
	c.nCached = int(c.next()) % 150
	c.nPrior = int(c.next() % 12)
	c.pageRows = 1 + int(c.next()%16)
	c.selfMask = c.next()%4 == 0
	return c
}

func newAttnCase(data []byte) *attnCase {
	c := &attnCase{data: data, state: 0x9E3779B97F4A7C15}
	for _, b := range data {
		c.state = (c.state ^ uint64(b)) * 0x100000001B3
	}
	if c.state == 0 {
		c.state = 1
	}
	return c
}

// stage builds the decoded stage: a one-layer arena holding the cached
// rows, the new rows' queries and K/V rows, prior rows, and masks. With
// shared rows, a donor arena commits them first and the stage's arena
// adopts them through a prefix cache; the handle stays pinned for the
// arena's life, as a session's does.
func (c *attnCase) stage() *attnStage {
	hidden := c.heads * c.hd
	geom := kvcache.Config{Layers: 1, Heads: c.heads, HeadDim: c.hd, PageRows: c.pageRows}
	arena := kvcache.New(geom)
	k, v := make([]float32, hidden), make([]float32, hidden)
	if c.shared > 0 {
		donor := kvcache.New(geom)
		for p := 0; p < c.shared; p++ {
			c.fill(k)
			c.fill(v)
			donor.Append(0, k, v)
		}
		donor.Advance(c.shared)
		toks := make([]int, c.shared)
		for i := range toks {
			toks[i] = i
		}
		cache := kvcache.NewPrefixCache(1 << 30)
		cache.Insert("fuzz", toks, donor)
		donor.Release() // the cache keeps the pages it aliased
		h := cache.Lookup("fuzz", toks, len(toks))
		if h == nil || h.Len() != c.shared {
			panic("attnCase: the inserted prefix does not match whole")
		}
		arena.AdoptPrefix(h)
	}
	for p := c.shared; p < c.nCached; p++ {
		c.fill(k)
		c.fill(v)
		arena.Append(0, k, v)
	}
	arena.Advance(c.nCached - c.shared)
	rows := func(n int) [][]float32 {
		m := tensor.NewMatrix(n, hidden)
		c.fill(m.Data)
		out := make([][]float32, n)
		for i := range out {
			out[i] = m.Row(i)
		}
		return out
	}
	q := tensor.NewMatrix(c.nNew, hidden)
	c.fill(q.Data)
	if c.qScale != 0 {
		tensor.Scale(c.qScale, q.Data)
	}
	a := &attnStage{
		heads: c.heads, hd: c.hd, scale: float32(1.0 / math.Sqrt(float64(c.hd))),
		q: q, out: tensor.NewMatrix(c.nNew, hidden), cache: arena, nCached: c.nCached,
		kRows: rows(c.nNew), vRows: rows(c.nNew), priorK: rows(c.nPrior), priorV: rows(c.nPrior),
	}
	inPass := c.bits(c.nNew * c.nNew)
	prior := c.bits(c.nNew * max(c.nPrior, 1))
	selfMask := c.selfMask
	a.mask = func(i, j int) bool { return j <= i && (j == i && !selfMask || inPass[i*c.nNew+j]) }
	a.priorMask = func(i, j int) bool { return prior[i*c.nPrior+j] }
	return a
}

// runItems runs every item of a serially and returns a copy of its output.
func runItems(a *attnStage) []float32 {
	items, bufLen := a.items()
	buf := make([]float32, bufLen)
	for it := 0; it < items; it++ {
		a.item(it, buf)
	}
	return append([]float32(nil), a.out.Data...)
}

// FuzzTreeAttention checks the blocked attention items against the
// per-row items bit for bit, on decoded stages: head dims 8 to 128, up to
// 24 new rows, up to 149 cached rows on pages of 1 to 16 rows, up to 11
// prior rows, random tree masks (fully masked rows included) and special
// values. Plain go test runs the seeds below and the committed corpus in
// testdata/fuzz/FuzzTreeAttention.
func FuzzTreeAttention(f *testing.F) {
	f.Add([]byte{1, 1, 20, 100, 5, 15, 1})            // hd 16, two heads, 21 rows: two full blocks and a five-row one
	f.Add([]byte{0, 0, 7, 0, 0, 3, 1})                // hd 8, no cached rows: a first prefill chunk of 8 rows
	f.Add([]byte{3, 0, 12, 140, 11, 0, 1})            // hd 128, one-row pages, 11 prior rows, 13 rows
	f.Add([]byte{2, 1, 23, 64, 3, 7, 0, 0, 1, 2, 3})  // hd 32, 24 rows, fully masked rows possible, specials up front
	f.Add([]byte{1, 0, 15, 30, 2, 9, 1, 5, 6, 7, 8})  // large magnitudes: Inf and NaN scores
	f.Add([]byte{0, 1, 2, 80, 0, 15, 1, 12, 11, 200}) // three rows: a four-lane block
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeAttnCase(data)
		a := c.stage()
		want := runItems(a)

		var plan blockPlan
		if !plan.build(c.nNew, c.nPrior, a.mask, a.priorMask) {
			return
		}
		a.plan = &plan
		a.stageRows(tensor.NewScratch())
		clear(a.out.Data)
		got := runItems(a)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("hd %d heads %d rows %d cached %d prior %d pages of %d: row %d col %d: blocked %v (%#x), per-row %v (%#x)",
					c.hd, c.heads, c.nNew, c.nCached, c.nPrior, c.pageRows, i/a.out.Cols, i%a.out.Cols,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	})
}

// decodeOneRowCase decodes a one-row stage: heads 1, 2, 3, 4, 5 or 8 of
// head dim 3 to 32 (around the 8- and 16-column groups), up to 299
// cached rows on pages of 3 to 64 rows, up to 11 prior rows, a fuzzed
// diagonal, possibly a prefix of one or two whole pages and a partial
// tail adopted from a prefix cache, queries possibly scaled by 1/64, and
// values with or without the specials.
func decodeOneRowCase(data []byte) *attnCase {
	c := newAttnCase(data)
	c.heads = []int{1, 2, 3, 4, 5, 8}[c.next()%6]
	c.hd = []int{3, 8, 16, 20, 32}[c.next()%5]
	c.nNew = 1
	c.pageRows = []int{3, 7, 16, 64}[c.next()%4]
	c.nCached = (int(c.next())<<8 | int(c.next())) % 300
	c.nPrior = int(c.next() % 12)
	c.selfMask = c.next()%4 == 0
	if b := c.next(); b%2 == 1 {
		shared := c.pageRows*(1+int(b>>1)%2) + 1 + int(b>>2)%(c.pageRows-1)
		if shared <= c.nCached {
			c.shared = shared
		}
	}
	b := c.next()
	if b&1 != 0 {
		c.qScale = 1.0 / 64
	}
	c.plain = b&2 != 0
	return c
}

// FuzzDecodeAttention checks the one-row item, every head side by side
// on the multi-head kernels (DESIGN.md §27), against the per-row items,
// one head at a time, bit for bit: heads 1 to 8, contexts crossing page
// boundaries, arenas that adopted a prefix with a partial tail, prior
// rows, a masked diagonal and special values (whose dots overflow to
// ±Inf and NaN, and whose softmax arguments leave the exp kernels'
// range). Plain go test runs the seeds below and the committed corpus in
// testdata/fuzz/FuzzDecodeAttention.
func FuzzDecodeAttention(f *testing.F) {
	f.Add([]byte{3, 2, 3, 1, 16, 0, 1, 1, 3})          // 4 heads of 16, 272 cached rows on 64-row pages, 65 adopted: prefix-fleet's decode
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0})           // one head of 3, no cached rows: the diagonal alone
	f.Add([]byte{4, 4, 1, 0, 200, 5, 0, 3, 3})         // 5 heads of 32, 7-row pages, a masked diagonal, a two-page prefix
	f.Add([]byte{5, 3, 2, 1, 9, 11, 1, 7, 1, 0, 1, 5}) // 8 heads of 20, 16-row pages, 11 prior rows, signed zeros up front
	f.Add([]byte{2, 1, 1, 0, 40, 2, 2, 5, 0, 5, 6, 5}) // 3 heads of 8, a 9-row prefix, float32's limits up front: Inf and NaN scores
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeOneRowCase(data)
		a := c.stage()
		items, bufLen := a.items()
		if items != 1 {
			t.Fatalf("a one-row pass has %d items, want 1", items)
		}
		buf := make([]float32, c.nCached+c.nPrior+1)
		for h := 0; h < c.heads; h++ {
			a.row(0, h, buf)
		}
		want := append([]float32(nil), a.out.Data...)
		clear(a.out.Data)
		a.item(0, make([]float32, bufLen))
		for i, w := range want {
			if g := a.out.Data[i]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("heads %d hd %d cached %d (%d adopted) prior %d pages of %d: head %d col %d: one-row item %v (%#x), per-row %v (%#x)",
					c.heads, c.hd, c.nCached, c.shared, c.nPrior, c.pageRows, i/c.hd, i%c.hd,
					g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	})
}
