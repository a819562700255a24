package core

import (
	"fmt"

	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/tree"
)

// prefixSharer is the optional session capability the prefix cache
// needs: access to the paged arena (for inserting committed prompt
// pages) and a prefill that adopts a cached prefix. transformer.Session
// implements it; sessions that do not (ngram, Reference() transformers)
// fall back to cold prefill transparently, following the
// repo's structural-optional-interface convention (model.Closer,
// model.CacheSizer).
type prefixSharer interface {
	Arena() *kvcache.Arena
	PrefillShared(h *kvcache.PinnedPrefix, prompt []model.Token) []float32
}

// prefixShared reports how many prompt tokens a session served from the
// prefix cache (0 on a miss), for the iteration records.
type prefixShared interface {
	PrefixSharedTokens() int
}

// prefixModel wraps a model so every session it opens consults the
// engine's prefix cache at prefill. The namespace isolates this model's
// entries: the LLM and each SSM see the same token streams but cache
// incompatible K/V geometries and values.
type prefixModel struct {
	model.Model
	cache *kvcache.PrefixCache
	ns    string
}

func (m prefixModel) NewSession() model.Session {
	return &prefixSession{inner: m.Model.NewSession(), cache: m.cache, ns: m.ns}
}

// prefixSession decorates one session with prefix-cache lookup at
// Prefill and insert-on-prefill plus insert-on-retire, so concurrent
// same-prefix admissions hit (the pages of a prompt are complete and
// immutable the moment its prefill commits — no need to wait for
// retirement) and evicted entries are re-seeded when a request closes.
type prefixSession struct {
	inner  model.Session
	cache  *kvcache.PrefixCache
	ns     string
	prompt []model.Token
	pinned *kvcache.PinnedPrefix
	shared int
	closed bool
}

var _ model.Session = (*prefixSession)(nil)
var _ model.Closer = (*prefixSession)(nil)

func (s *prefixSession) Prefill(prompt []model.Token) []float32 {
	s.prompt = append([]model.Token(nil), prompt...)
	sh, ok := s.inner.(prefixSharer)
	if !ok || sh.Arena() == nil {
		return s.inner.Prefill(prompt)
	}
	// Cap the lookup one short of the full prompt: at least one token
	// must run through the forward pass to produce the last-token
	// distribution a prefill returns.
	var dist []float32
	if h := s.cache.Lookup(s.ns, s.prompt, len(prompt)-1); h != nil {
		s.pinned, s.shared = h, h.Len()
		dist = sh.PrefillShared(h, prompt)
	} else {
		dist = s.inner.Prefill(prompt)
	}
	s.cache.Insert(s.ns, s.prompt, sh.Arena())
	return dist
}

func (s *prefixSession) Decode(tok model.Token) []float32      { return s.inner.Decode(tok) }
func (s *prefixSession) DecodeTree(t *tree.Tree) [][]float32   { return s.inner.DecodeTree(t) }
func (s *prefixSession) Accept(tokens []model.Token) []float32 { return s.inner.Accept(tokens) }
func (s *prefixSession) Len() int                              { return s.inner.Len() }

// PrefixSharedTokens reports the prompt tokens served from the cache.
func (s *prefixSession) PrefixSharedTokens() int { return s.shared }

// CacheBytes forwards the inner session's KV footprint (0 when the
// inner session does not size itself).
func (s *prefixSession) CacheBytes() int {
	if cs, ok := s.inner.(model.CacheSizer); ok {
		return cs.CacheBytes()
	}
	return 0
}

// Close re-inserts the prompt prefix (restoring entries the LRU may
// have evicted while the request ran — the insert-on-retire half of the
// policy), releases the pin, and closes the inner session.
func (s *prefixSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if sh, ok := s.inner.(prefixSharer); ok && sh.Arena() != nil && len(s.prompt) > 0 {
		s.cache.Insert(s.ns, s.prompt, sh.Arena())
	}
	if s.pinned != nil {
		s.pinned.Release()
		s.pinned = nil
	}
	if c, ok := s.inner.(model.Closer); ok {
		c.Close()
	}
}

// wrapPrefixCache installs the shared prefix cache over the configured
// models when Config.PrefixCacheBytes is set.
func (e *Engine) wrapPrefixCache() {
	if e.cfg.PrefixCacheBytes <= 0 {
		return
	}
	e.prefix = kvcache.NewPrefixCache(e.cfg.PrefixCacheBytes)
	e.cfg.LLM = prefixModel{Model: e.cfg.LLM, cache: e.prefix, ns: "llm"}
	ssms := make([]model.Model, len(e.cfg.SSMs))
	for i, m := range e.cfg.SSMs {
		ssms[i] = prefixModel{Model: m, cache: e.prefix, ns: fmt.Sprintf("ssm%d", i)}
	}
	e.cfg.SSMs = ssms
}

// PrefixCacheStats snapshots the engine's prefix cache; the zero value
// is returned when Config.PrefixCacheBytes is unset.
func (e *Engine) PrefixCacheStats() kvcache.PrefixStats {
	if e.prefix == nil {
		return kvcache.PrefixStats{}
	}
	return e.prefix.Stats()
}
