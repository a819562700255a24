package transformer

import (
	"specinfer/internal/model"
	"specinfer/internal/tensor"
)

// workspace is the storage a session's forward passes reuse: the scratch
// arena, the RoPE coefficient cache, the attention stage and its block
// plan, the forward passes' K/V row headers, the retained tree with
// its bump arena, and the token, position and last-distribution buffers.
// None of it carries meaning from one request to the next — every
// buffer is fully overwritten before it is read — so a closed session
// hands its workspace back to the Model's pool and the next session
// starts warm (DESIGN.md §25). The pool is a freelist.List: sessions of
// one Model open and close on any goroutine (two replicas can share a
// Model), and the list drops the workspaces a burst left idle.
type workspace struct {
	scr  *tensor.Scratch
	rope *tensor.RopeTable // nil for ArchOPT
	at   attnStage
	plan blockPlan
	kv   passKV
	tree treeState
	toks []model.Token
	pos  []int
	last []float32 // the distribution after the last committed token
}

func newWorkspace(m *Model) *workspace {
	ws := &workspace{scr: tensor.NewScratch(), last: make([]float32, m.cfg.Vocab)}
	if m.cfg.Arch == ArchLLaMA {
		ws.rope = tensor.NewRopeTable(m.ropeTheta, m.cfg.headDim())
	}
	ts := &ws.tree
	ts.k = make([][][]float32, m.cfg.Layers)
	ts.v = make([][][]float32, m.cfg.Layers)
	// The masks of an incremental tree pass, built once: new token i is
	// node first+i, retained row j is node 1+j.
	ts.mask = func(i, j int) bool { return ts.anc.Has(ts.first+i, ts.first+j) }
	ts.prior.mask = func(i, j int) bool { return ts.anc.Has(ts.first+i, 1+j) }
	return ws
}

// tokens and positions return the workspace's n-long token and position
// buffers, valid until the next call.
func (ws *workspace) tokens(n int) []model.Token {
	if cap(ws.toks) < n {
		ws.toks = make([]model.Token, n)
	}
	return ws.toks[:n]
}

func (ws *workspace) positions(n int) []int {
	if cap(ws.pos) < n {
		ws.pos = make([]int, n)
	}
	return ws.pos[:n]
}

// release empties the workspace for the model's pool: it drops the
// retained tree, every K/V row header and the attention stage's
// operands, so a pooled workspace keeps nothing alive but its own
// buffers — not the tree arena's chunks before its last consolidation,
// and not the closed session's cache.
func (ws *workspace) release() {
	ws.tree.reset()
	ws.kv.drop()
	ws.at = attnStage{}
}

// floatArena is a bump allocator of float32 slices over a list of
// chunks. Slices stay valid until reset; reset keeps the storage, so a
// caller that allocates the same amounts between resets allocates from
// the heap only until its first reset after the largest round. A round
// that spilled into several chunks is consolidated at reset into one
// chunk of exactly the floats it used, so the steady state is one chunk
// no larger than a round.
type floatArena struct {
	chunks [][]float32
	cur    int // chunk being bumped
	off    int // next free float in chunks[cur]
	used   int // floats handed out since the last reset
}

// minArenaChunk is the smallest chunk the arena allocates, in floats.
const minArenaChunk = 1 << 12

// alloc returns n floats of arena storage. Their contents are whatever
// the last round left there: callers overwrite every element.
func (a *floatArena) alloc(n int) []float32 {
	a.used += n
	for a.cur < len(a.chunks) {
		c := a.chunks[a.cur]
		if a.off+n <= len(c) {
			s := c[a.off : a.off+n : a.off+n]
			a.off += n
			return s
		}
		a.cur++
		a.off = 0
	}
	size := max(n, minArenaChunk)
	if k := len(a.chunks); k > 0 {
		size = max(size, 2*len(a.chunks[k-1]))
	}
	a.chunks = append(a.chunks, make([]float32, size))
	a.cur, a.off = len(a.chunks)-1, n
	return a.chunks[a.cur][:n:n]
}

// reset frees every slice handed out since the last reset.
func (a *floatArena) reset() {
	if len(a.chunks) > 1 {
		a.chunks = append(a.chunks[:0], make([]float32, a.used))
		clear(a.chunks[1:cap(a.chunks)])
	}
	a.cur, a.off, a.used = 0, 0, 0
}
