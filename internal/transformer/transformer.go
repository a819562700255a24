// Package transformer implements a pure-Go decoder-only transformer
// (LLaMA-style: RMSNorm, rotary position embeddings, SwiGLU MLP) that
// serves as the runnable substrate for SpecInfer's token tree verifier.
//
// It implements model.Model with three decoding paths:
//
//   - ordinary incremental decoding with a per-session KV cache,
//   - prefill (batch processing of the prompt), and
//   - tree-based parallel decoding (§4.2 of the paper): all nodes of a
//     speculated token tree are scored in ONE pass over the weights using
//     a depth-first cache layout and a topology-aware causal mask, and the
//     K/V rows computed for accepted nodes are reused when the verified
//     path is committed (Accept), exactly as SpecInfer reuses the shared
//     KV cache across branches.
//
// The weights are deterministic functions of a seed, so tests are
// reproducible; the model is small but real — the equivalence between
// tree-parallel decoding and sequence-at-a-time decoding is established on
// genuine attention computations, not mocks.
package transformer

import (
	"fmt"
	"math"

	"specinfer/internal/freelist"
	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
)

// Arch selects the transformer family.
type Arch int

const (
	// ArchLLaMA: RMSNorm, rotary position embeddings, SwiGLU MLP.
	ArchLLaMA Arch = iota
	// ArchOPT: LayerNorm (with bias), learned absolute position
	// embeddings, ReLU MLP — the OPT family the paper also serves.
	ArchOPT
)

func (a Arch) String() string {
	if a == ArchOPT {
		return "opt"
	}
	return "llama"
}

// Config describes a transformer geometry for the runnable substrate.
type Config struct {
	Name      string
	Arch      Arch // zero value is ArchLLaMA
	Vocab     int
	Hidden    int
	Heads     int
	FFN       int
	Layers    int
	RopeTheta float64 // 0 means 10000 (ArchLLaMA)
	MaxSeq    int     // learned-position capacity; 0 means 1024 (ArchOPT)
	Seed      uint64  // weight-initialization seed
}

func (c Config) headDim() int { return c.Hidden / c.Heads }

// Validate panics with a descriptive message on an unusable config.
func (c Config) validate() {
	switch {
	case c.Vocab < 2:
		panic("transformer: vocab must be >= 2")
	case c.Hidden <= 0 || c.Heads <= 0 || c.FFN <= 0 || c.Layers <= 0:
		panic("transformer: dims must be positive")
	case c.Hidden%c.Heads != 0:
		panic(fmt.Sprintf("transformer: hidden %d not divisible by heads %d", c.Hidden, c.Heads))
	case c.headDim()%2 != 0:
		panic("transformer: head dim must be even for RoPE")
	}
}

type layerWeights struct {
	attnNorm     []float32
	attnNormBias []float32      // ArchOPT only
	wq, wk       *tensor.Matrix // (hidden x hidden)
	wv, wo       *tensor.Matrix
	mlpNorm      []float32
	mlpNormBias  []float32      // ArchOPT only
	wGate        *tensor.Matrix // (ffn x hidden); nil for ArchOPT
	wUp          *tensor.Matrix // (ffn x hidden)
	wDown        *tensor.Matrix // (hidden x ffn)
}

// Projection kinds: the order of one layer's weights in Model.projs.
const (
	projQ = iota
	projK
	projV
	projO
	projGate
	projUp
	projDown
	projsPerLayer
)

// Model is a seeded random-weight transformer implementing model.Model.
type Model struct {
	cfg           Config
	embed         *tensor.Matrix // (vocab x hidden)
	posEmbed      *tensor.Matrix // (maxSeq x hidden); ArchOPT only
	layers        []layerWeights
	finalNorm     []float32
	finalNormBias []float32      // ArchOPT only
	lmHead        *tensor.Matrix // (vocab x hidden)
	ropeTheta     float64

	// projs lists every weight a forward pass multiplies activations by,
	// aliasing the matrices above: per layer projsPerLayer entries in
	// projQ..projDown order (the gate entry nil for ArchOPT), then the LM
	// head. Session.mm takes an index into it; the packed view below is a
	// parallel slice in the same order.
	projs []*tensor.Matrix

	// packed is the packed-panel view of projs, built in New and
	// rewritten by Trainer after every weight update; nil when the
	// packed kernel is unavailable (tensor.HasPackedKernel).
	packed []*tensor.PackedMatrix

	// workspaces holds closed sessions' forward-pass storage for the
	// sessions opened next.
	workspaces freelist.List[*workspace]

	// attnSplit, when positive, runs every attention stage on exactly
	// that many goroutines (1: serially), above attnParallelFloor or
	// not. Only the package's tests set it; zero sizes the split from
	// GOMAXPROCS and the floor (runAttention).
	attnSplit int
}

var _ model.Model = (*Model)(nil)

// New builds a transformer with weights drawn deterministically from
// cfg.Seed.
func New(cfg Config) *Model {
	cfg.validate()
	rng := tensor.NewRNG(cfg.Seed)
	theta := cfg.RopeTheta
	if theta == 0 {
		theta = 10000
	}
	if cfg.MaxSeq == 0 {
		cfg.MaxSeq = 1024
	}
	m := &Model{cfg: cfg, ropeTheta: theta}
	std := 0.08 // large enough that tiny models produce peaked, varied logits
	initMat := func(rows, cols int) *tensor.Matrix {
		w := tensor.NewMatrix(rows, cols)
		rng.FillNormal(w.Data, std/math.Sqrt(float64(cols)/64.0+1))
		return w
	}
	m.embed = tensor.NewMatrix(cfg.Vocab, cfg.Hidden)
	rng.FillNormal(m.embed.Data, 0.5)
	m.lmHead = initMat(cfg.Vocab, cfg.Hidden)
	m.finalNorm = ones(cfg.Hidden)
	if cfg.Arch == ArchOPT {
		m.posEmbed = tensor.NewMatrix(cfg.MaxSeq, cfg.Hidden)
		rng.FillNormal(m.posEmbed.Data, 0.1)
		m.finalNormBias = make([]float32, cfg.Hidden)
	}
	m.layers = make([]layerWeights, cfg.Layers)
	for l := range m.layers {
		lw := layerWeights{
			attnNorm: ones(cfg.Hidden),
			wq:       initMat(cfg.Hidden, cfg.Hidden),
			wk:       initMat(cfg.Hidden, cfg.Hidden),
			wv:       initMat(cfg.Hidden, cfg.Hidden),
			wo:       initMat(cfg.Hidden, cfg.Hidden),
			mlpNorm:  ones(cfg.Hidden),
			wUp:      initMat(cfg.FFN, cfg.Hidden),
			wDown:    initMat(cfg.Hidden, cfg.FFN),
		}
		if cfg.Arch == ArchOPT {
			lw.attnNormBias = make([]float32, cfg.Hidden)
			lw.mlpNormBias = make([]float32, cfg.Hidden)
		} else {
			lw.wGate = initMat(cfg.FFN, cfg.Hidden)
		}
		m.layers[l] = lw
		m.projs = append(m.projs, lw.wq, lw.wk, lw.wv, lw.wo, lw.wGate, lw.wUp, lw.wDown)
	}
	m.projs = append(m.projs, m.lmHead)
	if tensor.HasPackedKernel() {
		m.packed = make([]*tensor.PackedMatrix, len(m.projs))
		for i, w := range m.projs {
			if w != nil {
				m.packed[i] = tensor.Pack(w)
			}
		}
	}
	return m
}

// repack rewrites the packed view from the current weights; Trainer
// calls it after every in-place update so the view never goes stale.
func (m *Model) repack() {
	for i, p := range m.packed {
		if p != nil {
			p.Repack(m.projs[i])
		}
	}
}

// norm applies the architecture's normalization (RMSNorm for LLaMA,
// LayerNorm with bias for OPT).
func (m *Model) norm(x, gain, bias, out []float32) {
	if m.cfg.Arch == ArchOPT {
		tensor.LayerNorm(x, gain, bias, out, 1e-5)
		return
	}
	tensor.RMSNorm(x, gain, out, 1e-5)
}

func ones(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Name implements model.Model.
func (m *Model) Name() string { return m.cfg.Name }

// VocabSize implements model.Model.
func (m *Model) VocabSize() int { return m.cfg.Vocab }

// Config returns the model geometry.
func (m *Model) Config() Config { return m.cfg }

// NewSession implements model.Model. The session's workspace comes from
// the model's free list, and its KV pages from kvcache's; Close returns
// both.
func (m *Model) NewSession() model.Session {
	m.workspaces.Tick()
	ws, ok := m.workspaces.Get()
	if !ok {
		ws = newWorkspace(m)
	}
	s := &Session{m: m, ws: ws}
	s.cache = kvcache.New(kvcache.Config{
		Layers: m.cfg.Layers, Heads: m.cfg.Heads, HeadDim: m.cfg.headDim(),
	})
	return s
}

// Session is the per-request state: a grown-on-demand KV cache (the
// paged head-major arena, or the pre-paging per-position slice layout
// for Reference() sessions), the committed length and last distribution,
// and a pooled workspace that holds the forward passes' storage and the
// retained tree of the last tree-parallel decode, kept so Accept can
// commit verified rows without recomputation.
type Session struct {
	m   *Model
	ws  *workspace // pooled storage; nil once the session is closed
	ref bool       // use the scalar reference path (see reference.go)

	// Exactly one cache backend is active. cache is the paged head-major
	// arena (default sessions); cacheK/cacheV is the pre-paging slice
	// layout [layer][pos][hidden] the scalar Reference() path reads.
	cache  *kvcache.Arena
	cacheK [][][]float32
	cacheV [][][]float32

	n        int       // committed tokens
	lastDist []float32 // ws.last once a token is committed: the next-token distribution

	// tree is the state of the last DecodeTree (the workspace's), retained
	// until the next commit; nil until the session's first DecodeTree.
	tree *treeState

	// treeRows counts the tree nodes DecodeTree has run through the
	// forward pass (the incremental-drafting tests read it).
	treeRows int
}

// treeState is what a DecodeTree call leaves behind for the next call
// and for Accept: per scored node (by node id), the node's token and
// parent as they were when scored, its ancestor bitset, its K/V rows and
// its next-token distribution. Accept commits verified nodes' rows from
// it without recomputation; a DecodeTree of the same tree grown by
// appended nodes forwards only the new ones against it.
//
// The rows and distributions live in rows, a bump arena reused once the
// tree is dropped, so after warm-up a tree pass allocates nothing.
type treeState struct {
	t      *tree.Tree // the tree last scored; nil when nothing is retained
	tok    []model.Token
	parent []tree.NodeID
	anc    tree.Ancestry
	k, v   [][][]float32 // [layer][id-1][hidden]; the root's rows are committed
	dists  [][]float32   // [id]

	rows floatArena

	// first is the node id of the current pass's first new token, read
	// by mask and prior.mask (built once in newWorkspace).
	first int
	mask  func(i, j int) bool
	prior priorRows
}

// scored returns the number of retained nodes.
func (ts *treeState) scored() int { return len(ts.tok) }

// reset drops the retained tree, keeping its storage for the next one:
// every row and distribution slice handed out since the last reset goes
// back to the arena. The row headers are cleared, not just truncated, so
// none outlives the arena chunk a reset consolidates away.
func (ts *treeState) reset() {
	ts.t = nil
	ts.tok, ts.parent = ts.tok[:0], ts.parent[:0]
	ts.anc.Reset()
	for l := range ts.k {
		clear(ts.k[l])
		clear(ts.v[l])
		ts.k[l], ts.v[l] = ts.k[l][:0], ts.v[l][:0]
	}
	clear(ts.dists)
	ts.dists = ts.dists[:0]
	ts.rows.reset()
}

// extends reports whether t is the retained tree grown by at least one
// appended node, every retained node still carrying the token and
// parent it was scored with.
func (ts *treeState) extends(t *tree.Tree) bool {
	n := ts.scored()
	if ts.t != t || t.Len() <= n {
		return false
	}
	for id := 0; id < n; id++ {
		if nd := &t.Nodes[id]; nd.Token != ts.tok[id] || nd.Parent != ts.parent[id] {
			return false
		}
	}
	return true
}

var _ model.Session = (*Session)(nil)

// Len implements model.Session.
func (s *Session) Len() int { return s.n }

// prefillChunk bounds the token-batch size of one prefill forward pass.
// A monolithic long prefill sizes every Scratch matrix by the full
// prompt length, pushing the working set (activations, scores, K/V
// staging) out of cache exactly when the matmuls want it resident;
// committing in bounded chunks keeps the arena cache-sized at any
// context length. Chunking cannot change results: tokens of earlier
// chunks move from the in-pass causal segment to the committed-cache
// segment of later tokens' attention, and both segments compute each
// score as the identical dot-then-scale on the identical operands (the
// same argument — and the same golden tests — that make PrefillShared
// bit-identical to a cold prefill).
const prefillChunk = 128

// Prefill implements model.Session. Non-reference sessions process the
// prompt in prefillChunk-token batches (see above); the scalar reference
// path keeps the single monolithic pass it has always been.
func (s *Session) Prefill(prompt []model.Token) []float32 {
	s.live()
	if s.n != 0 {
		panic("transformer: Prefill on non-empty session")
	}
	if len(prompt) == 0 {
		panic("transformer: empty prompt")
	}
	if s.ref {
		s.commitPass(prompt, true)
	} else {
		s.prefillChunked(prompt)
	}
	s.invalidateTree()
	return cloneVec(s.lastDist)
}

// prefillChunked commits tokens through the forward pass in prefillChunk
// batches at the next positions, each chunk before the next so later
// chunks attend the earlier ones through the KV cache. Only the last
// chunk runs the LM head.
func (s *Session) prefillChunked(tokens []model.Token) {
	for off := 0; off < len(tokens); off += prefillChunk {
		end := min(off+prefillChunk, len(tokens))
		s.commitPass(tokens[off:end], end == len(tokens))
	}
}

// live panics when the session has been closed: its workspace may
// already serve another session.
func (s *Session) live() {
	if s.ws == nil {
		panic("transformer: use of a closed session")
	}
}

// Arena exposes the session's paged KV arena for cross-request prefix
// sharing (nil for Reference() sessions, which keep the pre-paging
// layout and cannot alias pages).
func (s *Session) Arena() *kvcache.Arena {
	if s.ref {
		return nil
	}
	return s.cache
}

// PrefillShared is Prefill with the leading h.Len() prompt tokens served
// from a cached prefix instead of recomputed: the shared pages are
// adopted into the session's arena (read-only aliasing; the partial
// boundary page is copied — see kvcache.Arena.AdoptPrefix) and only the
// suffix runs through the forward pass, at its true absolute positions
// against the adopted cache.
//
// The result is bit-identical to a cold Prefill of the full prompt: the
// adopted K/V rows are float-for-float the rows a cold prefill would
// have committed (they were committed by one), and the suffix pass reads
// them through the same contiguous-page kernels a cold prefill's
// in-pass attention is already proven bit-equal to (the PR 2/3 golden
// three-way tests). The prefix must be a strict prefix — at least one
// suffix token must remain to produce the last-token distribution.
//
// The handle stays pinned and must be released when the session closes.
func (s *Session) PrefillShared(h *kvcache.PinnedPrefix, prompt []model.Token) []float32 {
	s.live()
	if s.n != 0 {
		panic("transformer: PrefillShared on non-empty session")
	}
	if s.ref || s.cache == nil {
		panic("transformer: PrefillShared requires the paged arena")
	}
	p := h.Len()
	if p <= 0 || p >= len(prompt) {
		panic(fmt.Sprintf("transformer: shared prefix %d must be a strict prefix of prompt %d", p, len(prompt)))
	}
	s.cache.AdoptPrefix(h)
	s.n = p
	s.prefillChunked(prompt[p:])
	s.invalidateTree()
	return cloneVec(s.lastDist)
}

// Decode implements model.Session. The distribution it returns is the
// session's workspace buffer: it stays valid until the session's next
// Prefill, Decode, Accept or Close.
func (s *Session) Decode(tok model.Token) []float32 {
	s.live()
	if s.n == 0 {
		panic("transformer: Decode before Prefill")
	}
	toks := s.ws.tokens(1)
	toks[0] = tok
	s.commitPass(toks, true)
	s.invalidateTree()
	return s.lastDist
}

// DecodeTree implements model.Session: tree-based parallel decoding. All
// speculated nodes are processed in a single forward pass, in node-id
// order under the tree's ancestor mask; the root's distribution is the
// one already produced when its token was committed.
//
// Incremental drafting: when t is the tree this session scored last,
// grown since by appended nodes, with no commit in between and every
// earlier node unchanged, only the appended nodes run through the
// forward pass. They attend the committed cache, the retained K/V rows
// of their already-scored ancestors, and each other under the mask; the
// earlier nodes' distributions come back from retention. A speculator
// growing one tree level by level or wave by wave therefore forwards
// each node once. Every other call — a different tree, an in-place edit
// of a scored node, a tree with no new nodes, or any call on a
// Reference() session, which stays the oracle — scores the whole tree.
// Both give bit-identical results (DESIGN.md §16).
//
// The returned distributions, and the slice holding them, are the
// session's retention, in its tree arena: they stay valid until the
// session's next Accept, Decode, Prefill or Close, or the next DecodeTree
// that does not extend t, so Accept can serve the post-commit
// distribution and a later extension can return them without
// recomputation. Callers must treat them as read-only and copy what they
// keep longer. (Every in-repo consumer — sampling.Transform, the
// verifiers — copies before mutating.)
func (s *Session) DecodeTree(t *tree.Tree) [][]float32 {
	s.live()
	if s.n == 0 {
		panic("transformer: DecodeTree before Prefill")
	}
	ts := &s.ws.tree
	s.tree = ts
	if s.ref || !ts.extends(t) {
		ts.reset()
		ts.t = t
	}
	first := ts.scored()
	ts.anc.Extend(t)
	for id := first; id < t.Len(); id++ {
		ts.tok = append(ts.tok, t.Nodes[id].Token)
		ts.parent = append(ts.parent, t.Nodes[id].Parent)
	}
	if first == 0 {
		root := ts.rows.alloc(len(s.lastDist))
		copy(root, s.lastDist)
		ts.dists = append(ts.dists, root)
		first = 1
	}
	if nNew := t.Len() - first; nNew > 0 {
		tokens, positions := s.ws.tokens(nNew), s.ws.positions(nNew)
		for i := range tokens {
			nd := &t.Nodes[first+i]
			tokens[i] = nd.Token
			// The root occupies committed position n-1; a node at depth d
			// sits at absolute position n-1+d, exactly where it would land
			// if its branch were committed.
			positions[i] = s.n - 1 + nd.Depth
		}
		// New token i is node first+i; retained row j is node 1+j. Every
		// new token attends the whole committed cache (all committed
		// tokens are ancestors).
		ts.first = first
		var prior *priorRows
		if first > 1 {
			ts.prior.k, ts.prior.v = ts.k, ts.v
			prior = &ts.prior
		}
		s.treeRows += nNew
		if s.ref {
			dists, k, v := s.forwardReference(tokens, positions, ts.mask)
			s.retain(dists, k, v)
		} else {
			logits, k, v := s.forwardBatched(tokens, positions, ts.mask, prior, true, nNew)
			for i := 0; i < nNew; i++ {
				d := ts.rows.alloc(logits.Cols)
				copy(d, logits.Row(i))
				ts.dists = append(ts.dists, d)
			}
			s.retain(nil, k, v)
		}
	}
	//lint:ignore aliasret the model.Session contract: DecodeTree's distributions are the retained tree's, valid until it is dropped
	return ts.dists[:t.Len():t.Len()]
}

// retain appends a tree pass's K/V rows, and dists when non-nil, to the
// retained tree.
func (s *Session) retain(dists [][]float32, k, v [][][]float32) {
	ts := s.tree
	for l := range ts.k {
		ts.k[l] = append(ts.k[l], k[l]...)
		ts.v[l] = append(ts.v[l], v[l]...)
	}
	ts.dists = append(ts.dists, dists...)
}

// Accept implements model.Session: commits verified tokens. Tokens that
// follow a path of the last speculated tree reuse the K/V rows computed by
// DecodeTree; any remaining tokens (e.g. the bonus token sampled from the
// LLM on speculation miss) are decoded in one batched forward pass. Like
// Decode's, the distribution it returns is the session's buffer, valid
// until the session's next Prefill, Decode, Accept or Close.
func (s *Session) Accept(tokens []model.Token) []float32 {
	s.live()
	if s.n == 0 {
		panic("transformer: Accept before Prefill")
	}
	i := 0
	if ts := s.tree; ts != nil && ts.t != nil {
		u := ts.t.Root()
		for i < len(tokens) {
			v := ts.t.ChildWithToken(u, tokens[i])
			// Trees are append-only, so any node appended to the tree
			// AFTER the last DecodeTree call has an id beyond the retained
			// rows (the speculator keeps expanding the tree it scored);
			// such nodes — and any node edited in place since it was
			// scored — must be recomputed, not served from retention.
			if v == -1 || v >= ts.scored() || ts.tok[v] != tokens[i] || ts.parent[v] != u {
				break
			}
			// Copy the accepted rows out of the tree arena, which the
			// next tree reuses. For the paged arena the copy is a
			// head-segment memcpy straight into page storage — no
			// intermediate per-row clone.
			if s.cache != nil {
				for l := 0; l < s.m.cfg.Layers; l++ {
					s.cache.Append(l, ts.k[l][v-1], ts.v[l][v-1])
				}
				s.cache.Advance(1)
			} else {
				for l := 0; l < s.m.cfg.Layers; l++ {
					s.cacheK[l] = append(s.cacheK[l], cloneVec(ts.k[l][v-1]))
					s.cacheV[l] = append(s.cacheV[l], cloneVec(ts.v[l][v-1]))
				}
			}
			s.n++
			u = v
			i++
		}
		if u != ts.t.Root() {
			copy(s.lastDist, ts.dists[u])
		}
	}
	s.invalidateTree()
	// Decode the post-miss tail — the bonus token plus anything beyond
	// the speculated tree — in ONE forward pass at sequential positions
	// instead of one full pass per token. Within the pass each tail token
	// attends the committed cache plus its batch predecessors under plain
	// causality, which is bit-identical to committing them one at a time.
	if rest := tokens[i:]; len(rest) > 0 {
		s.commitPass(rest, true)
	}
	return s.lastDist
}

func (s *Session) invalidateTree() {
	if s.tree != nil {
		s.tree.reset()
	}
}

// commitRows appends a forward pass's K/V rows to the committed cache:
// head-segment memcpys into the paged arena, or per-position row appends
// for the slice cache of Reference() sessions.
func (s *Session) commitRows(k, v [][][]float32) {
	if s.cache != nil {
		nNew := len(k[0])
		for l := 0; l < s.m.cfg.Layers; l++ {
			for i := 0; i < nNew; i++ {
				s.cache.Append(l, k[l][i], v[l][i])
			}
		}
		s.cache.Advance(nNew)
		return
	}
	for l := 0; l < s.m.cfg.Layers; l++ {
		s.cacheK[l] = append(s.cacheK[l], k[l]...)
		s.cacheV[l] = append(s.cacheV[l], v[l]...)
	}
}

// Close implements model.Closer: it releases the session's KV cache
// (page-wise for the paged arena, into kvcache's free pages) and hands
// its workspace back to the model's free list. Any later call on the
// session panics, except Close, which does nothing, and Len and
// CacheBytes, which report an empty session.
func (s *Session) Close() {
	if s.ws == nil {
		return
	}
	if s.cache != nil {
		s.cache.Release()
	}
	s.ws.release()
	s.m.workspaces.Put(s.ws)
	s.ws, s.tree = nil, nil
	s.cacheK, s.cacheV = nil, nil
	s.lastDist = nil
	s.n = 0
}

// CacheBytes implements model.CacheSizer: the bytes of KV-cache storage
// the session currently holds (page storage for the arena, exact row
// bytes for the slice cache).
func (s *Session) CacheBytes() int {
	if s.cache != nil {
		return s.cache.Bytes()
	}
	rows := 0
	for l := range s.cacheK {
		rows += len(s.cacheK[l]) + len(s.cacheV[l])
	}
	return rows * s.m.cfg.Hidden * 4
}

// mm multiplies x by projection i (an index into Model.projs): on the
// packed-panel kernel where the CPU has it, else on the portable
// register-blocked MatMulT. The two kernels are bit-identical (DESIGN.md
// §17).
func (s *Session) mm(i int, x, out *tensor.Matrix) {
	if s.m.packed != nil {
		tensor.MatMulTPacked(s.m.packed[i], x, out)
		return
	}
	tensor.MatMulT(s.m.projs[i], x, out)
}

// commitPass runs tokens at the next positions through the forward pass
// under plain causality, commits their K/V rows at once and advances the
// committed length. With dist set it leaves the last token's
// distribution in s.lastDist (the workspace's buffer); the batched path
// runs the LM head on that one row, and without dist (a prefill chunk
// before the last) on none. On the batched path the rows live in the
// scratch arena only until commitRows copies them into arena pages, so
// a committed pass allocates no per-row storage.
func (s *Session) commitPass(tokens []model.Token, dist bool) {
	positions := s.ws.positions(len(tokens))
	for i := range positions {
		positions[i] = s.n + i
	}
	var last []float32
	if s.ref {
		dists, k, v := s.forwardReference(tokens, positions, nil)
		s.commitRows(k, v)
		last = dists[len(dists)-1]
	} else {
		head := 0
		if dist {
			head = 1
		}
		logits, k, v := s.forwardBatched(tokens, positions, nil, nil, false, head)
		s.commitRows(k, v)
		if dist {
			last = logits.Row(0)
		}
	}
	if last != nil {
		s.lastDist = s.ws.last
		copy(s.lastDist, last)
	}
	s.n += len(tokens)
}

// passKV holds a forward pass's K/V row headers: per-layer Matrix views
// for the projection matmuls, and per-layer row slices for attention and
// the commit. The workspace's one passKV serves every pass: a tree pass
// retains its rows by copying the row headers out (treeState.k and v).
type passKV struct {
	views  []tensor.Matrix // K of layer l at 2l, V at 2l+1
	rows   [][]float32     // K rows, then V rows, layer-major
	layers [][][]float32   // K per layer, then V per layer
}

// lay points p's headers at kAll and vAll, which hold each layer's nNew
// rows of hidden floats layer after layer, growing p's storage as
// needed, and returns the per-layer K and V rows.
func (p *passKV) lay(kAll, vAll []float32, layers, nNew, hidden int) (newK, newV [][][]float32) {
	if cap(p.views) < 2*layers {
		p.views = make([]tensor.Matrix, 2*layers)
		p.layers = make([][][]float32, 2*layers)
	}
	n := 2 * layers * nNew
	if cap(p.rows) < n {
		p.rows = make([][]float32, n)
	}
	if n < len(p.rows) {
		clear(p.rows[n:]) // the last pass's headers past this one's
	}
	p.views, p.layers, p.rows = p.views[:2*layers], p.layers[:2*layers], p.rows[:n]
	for l := 0; l < layers; l++ {
		span := l * nNew * hidden
		p.views[2*l] = tensor.Matrix{Rows: nNew, Cols: hidden, Data: kAll[span : span+nNew*hidden]}
		p.views[2*l+1] = tensor.Matrix{Rows: nNew, Cols: hidden, Data: vAll[span : span+nNew*hidden]}
		kRows := p.rows[l*nNew : (l+1)*nNew]
		vRows := p.rows[(layers+l)*nNew : (layers+l+1)*nNew]
		for i := 0; i < nNew; i++ {
			kRows[i] = p.views[2*l].Row(i)
			vRows[i] = p.views[2*l+1].Row(i)
		}
		p.layers[l], p.layers[layers+l] = kRows, vRows
	}
	return p.layers[:layers], p.layers[layers:]
}

// drop clears every header, leaving p's storage.
func (p *passKV) drop() {
	clear(p.views)
	clear(p.rows)
	clear(p.layers)
}

// priorRows is the "prior rows" attention segment of an incremental tree
// pass: the K/V rows of tree nodes scored by earlier passes, which new
// token i attends at row j iff mask(i, j) (j is an ancestor of i).
type priorRows struct {
	k, v [][][]float32 // [layer][row][hidden]
	mask func(i, j int) bool
}

// forwardBatched is the token-batched forward pass (§4.2's "one pass over
// the weights"): per layer it performs ONE projection matmul per weight
// matrix over all new tokens, blocked attention under the topology-aware
// mask, one batched MLP, and at the end one batched LM-head
// projection with a row softmax. All intermediates live in the session's
// workspace, so after warm-up a pass allocates nothing.
//
// Bit-exactness: every matmul element is the same sequential Dot over the
// same operands as the scalar reference, norms/softmaxes are applied
// row-wise with the same kernels, and every attention row, alone or as a
// lane of a block, keeps the reference's per-row reduction orders — so
// the outputs are float-for-float identical to forwardReference (the
// golden tests assert this). The prior segment keeps that: its scores are
// the in-pass segment's dot-then-scale, and a key's position in the score
// vector never changes its arithmetic (DESIGN.md §16, §21).
//
// It returns the row-softmaxed logits of the pass's last head rows (nil
// when head is 0), in the scratch arena, and the new rows' K/V per layer
// under the workspace's headers, valid until the next pass. A tree pass
// asks for every row's distribution, a committed pass for the last
// one's at most: rows are independent, so the head rows' bits do not
// depend on how many others ran the head. The rows of a tree pass
// (retain) outlive it: they are drawn from the tree arena, which keeps
// them until the tree is dropped; a committed pass's are copied into
// arena pages at once, so they live in the scratch arena.
func (s *Session) forwardBatched(tokens []model.Token, positions []int, mask func(i, j int) bool, prior *priorRows, retain bool, head int) (logits *tensor.Matrix, newK, newV [][][]float32) {
	cfg := s.m.cfg
	ws := s.ws
	nNew := len(tokens)
	hd := cfg.headDim()
	scale := float32(1.0 / math.Sqrt(float64(hd)))
	if mask == nil {
		mask = func(i, j int) bool { return j <= i }
	}
	scr := ws.scr

	// Embed all new tokens into the activation matrix.
	x := scr.Mat("x", nNew, cfg.Hidden)
	for i, tok := range tokens {
		if tok < 0 || tok >= cfg.Vocab {
			panic(fmt.Sprintf("transformer: token %d out of vocab %d", tok, cfg.Vocab))
		}
		xi := x.Row(i)
		copy(xi, s.m.embed.Row(tok))
		if cfg.Arch == ArchOPT {
			if positions[i] >= cfg.MaxSeq {
				panic(fmt.Sprintf("transformer: position %d exceeds MaxSeq %d", positions[i], cfg.MaxSeq))
			}
			tensor.Add(xi, s.m.posEmbed.Row(positions[i]))
		}
	}

	// The attention stage's per-pass state; with enough rows for a block
	// the mask is evaluated here, once for every layer and head.
	at := &ws.at
	*at = attnStage{heads: cfg.Heads, hd: hd, scale: scale, cache: s.cache, mask: mask}
	nPrior := 0
	if prior != nil {
		at.priorMask, nPrior = prior.mask, len(prior.k[0])
	}
	if ws.plan.build(nNew, nPrior, mask, at.priorMask) {
		at.plan = &ws.plan
	}

	h1 := scr.Mat("h1", nNew, cfg.Hidden)
	q := scr.Mat("q", nNew, cfg.Hidden)
	attnOut := scr.Mat("attn", nNew, cfg.Hidden)
	at.q, at.out = q, attnOut
	proj := scr.Mat("proj", nNew, cfg.Hidden)
	gate := scr.Mat("gate", nNew, cfg.FFN)
	up := scr.Mat("up", nNew, cfg.FFN)

	// All layers' K/V rows are laid out in two backing spans.
	var kAll, vAll []float32
	if n := cfg.Layers * nNew * cfg.Hidden; retain {
		kAll, vAll = ws.tree.rows.alloc(n), ws.tree.rows.alloc(n)
	} else {
		kAll, vAll = scr.Floats("kAll", n), scr.Floats("vAll", n)
	}
	kv := &ws.kv
	newK, newV = kv.lay(kAll, vAll, cfg.Layers, nNew, cfg.Hidden)

	for l := 0; l < cfg.Layers; l++ {
		lw := &s.m.layers[l]
		pi := l * projsPerLayer
		nCached := s.n
		var priorK, priorV [][]float32
		if prior != nil {
			priorK, priorV = prior.k[l], prior.v[l]
		}
		kRows, vRows := newK[l], newV[l]
		kMat, vMat := &kv.views[2*l], &kv.views[2*l+1]

		// One QKV projection matmul over every new token. Within a layer a
		// token's Q/K/V depend only on activations entering the layer, so
		// batching the projections is schedule-equivalent to the reference
		// path's per-token interleaving.
		for i := 0; i < nNew; i++ {
			s.m.norm(x.Row(i), lw.attnNorm, lw.attnNormBias, h1.Row(i))
		}
		s.mm(pi+projQ, h1, q)
		s.mm(pi+projK, h1, kMat)
		s.mm(pi+projV, h1, vMat)
		if cfg.Arch == ArchLLaMA {
			for i := 0; i < nNew; i++ {
				qi, ki := q.Row(i), kRows[i]
				for h := 0; h < cfg.Heads; h++ {
					ws.rope.Apply(qi[h*hd:(h+1)*hd], positions[i])
					ws.rope.Apply(ki[h*hd:(h+1)*hd], positions[i])
				}
			}
		}

		// Attention over the cached positions and the allowed prior and
		// new rows, per (block, head) and (row, head) item (attention.go).
		at.layer, at.nCached = l, nCached
		at.kRows, at.vRows = kRows, vRows
		at.priorK, at.priorV = priorK, priorV
		if at.plan != nil {
			at.stageRows(scr)
		}
		s.runAttention(at)
		s.mm(pi+projO, attnOut, proj)
		for i := 0; i < nNew; i++ {
			tensor.Add(x.Row(i), proj.Row(i))
		}

		// One batched MLP matmul per weight matrix.
		for i := 0; i < nNew; i++ {
			s.m.norm(x.Row(i), lw.mlpNorm, lw.mlpNormBias, h1.Row(i))
		}
		if cfg.Arch == ArchOPT {
			// Two-projection ReLU MLP.
			s.mm(pi+projUp, h1, up)
			tensor.ReLU(up.Data)
			s.mm(pi+projDown, up, proj)
		} else {
			// SwiGLU MLP.
			s.mm(pi+projGate, h1, gate)
			s.mm(pi+projUp, h1, up)
			tensor.SiLU(gate.Data)
			for d := range gate.Data {
				gate.Data[d] *= up.Data[d]
			}
			s.mm(pi+projDown, gate, proj)
		}
		for i := 0; i < nNew; i++ {
			tensor.Add(x.Row(i), proj.Row(i))
		}
	}

	// Final norm + one batched LM-head projection + row softmax over the
	// last head rows, left in the scratch arena for the caller to copy
	// out.
	if head == 0 {
		return nil, newK, newV
	}
	h1 = scr.Mat("h1", head, cfg.Hidden) // the same storage, head rows
	for i := 0; i < head; i++ {
		s.m.norm(x.Row(nNew-head+i), s.m.finalNorm, s.m.finalNormBias, h1.Row(i))
	}
	logits = scr.Mat("logits", head, cfg.Vocab)
	s.mm(len(s.m.projs)-1, h1, logits) // the LM head is the last projection
	tensor.SoftmaxRows(logits)
	return logits, newK, newV
}

func cloneVec(v []float32) []float32 {
	c := make([]float32, len(v))
	copy(c, v)
	return c
}
