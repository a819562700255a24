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
	data                                       []byte
	pos                                        int
	state                                      uint64
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
	if int(b) < len(attnSpecials) {
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
	c := &attnCase{data: data, state: 0x9E3779B97F4A7C15}
	for _, b := range data {
		c.state = (c.state ^ uint64(b)) * 0x100000001B3
	}
	if c.state == 0 {
		c.state = 1
	}
	c.hd = []int{8, 16, 32, 128}[c.next()%4]
	c.heads = 1 + int(c.next()%2)
	c.nNew = 1 + int(c.next()%24)
	c.nCached = int(c.next()) % 150
	c.nPrior = int(c.next() % 12)
	c.pageRows = 1 + int(c.next()%16)
	c.selfMask = c.next()%4 == 0
	return c
}

// stage builds the decoded stage: a one-layer arena holding the cached
// rows, the new rows' queries and K/V rows, prior rows, and masks.
func (c *attnCase) stage() *attnStage {
	hidden := c.heads * c.hd
	arena := kvcache.New(kvcache.Config{Layers: 1, Heads: c.heads, HeadDim: c.hd, PageRows: c.pageRows})
	k, v := make([]float32, hidden), make([]float32, hidden)
	for p := 0; p < c.nCached; p++ {
		c.fill(k)
		c.fill(v)
		arena.Append(0, k, v)
	}
	arena.Advance(c.nCached)
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
