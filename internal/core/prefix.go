package core

import (
	"fmt"
	"reflect"

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

// prefixModel wraps a model so every session it opens consults a
// prefix cache at prefill: the engine's own, or for a guest its host's
// (Engine.SubmitGuest). The namespace isolates this model's
// entries: the LLM and each SSM see the same token streams but cache
// incompatible K/V geometries and values. Every session it opens is
// appended to *opened, so the admission that opened it — the LLM
// session directly, the SSM sessions inside a speculator — can stage
// its cache calls in the prefill phase. A guest request's sessions
// (workload.Request.Guest) are opened as guests.
type prefixModel struct {
	model.Model
	cache  *kvcache.PrefixCache
	ns     string
	guest  bool
	opened *[]*prefixSession
}

func (m prefixModel) NewSession() model.Session {
	s := &prefixSession{inner: m.Model.NewSession(), cache: m.cache, ns: m.ns, guest: m.guest}
	*m.opened = append(*m.opened, s)
	return s
}

// prefixSession decorates one session with the prefix cache. Its
// prefill is split in three so the cache is only ever called from the
// scheduler goroutine: lookup pins the longest cached prefix before the
// prefill phase, Prefill runs the forward pass on a worker (adopting the
// pinned prefix, or cold), and publish inserts the prompt's pages after
// the phase, so later admissions hit (the pages of a prompt are
// complete and immutable the moment its prefill commits — no need to
// wait for retirement). Close inserts again, re-seeding entries the LRU
// evicted while the request ran. A guest session looks up like any
// other, in its host's cache when it has one, but never inserts: an
// overflow request placed off its affine replica must not copy its
// tenant's prefix into another replica's cache (DESIGN.md §13.5).
type prefixSession struct {
	inner  model.Session
	cache  *kvcache.PrefixCache
	ns     string
	guest  bool
	prompt []model.Token
	pinned *kvcache.PinnedPrefix
	shared int
	filled bool // the prompt's K/V are in the arena
	closed bool
}

var _ model.Session = (*prefixSession)(nil)
var _ model.Closer = (*prefixSession)(nil)

// arena returns the inner session's paged arena, or nil when it cannot
// share pages (such sessions prefill cold and never touch the cache).
func (s *prefixSession) arena() *kvcache.Arena {
	if sh, ok := s.inner.(prefixSharer); ok {
		return sh.Arena()
	}
	return nil
}

// lookup pins the longest cached prefix of prompt for the coming
// Prefill. Scheduler goroutine only.
func (s *prefixSession) lookup(prompt []model.Token) {
	s.prompt = append([]model.Token(nil), prompt...)
	if s.arena() == nil {
		return
	}
	// Cap the lookup one short of the full prompt: at least one token
	// must run through the forward pass to produce the last-token
	// distribution a prefill returns.
	if h := s.cache.Lookup(s.ns, s.prompt, len(prompt)-1); h != nil {
		s.pinned, s.shared = h, h.Len()
	}
}

// Prefill forwards the prompt lookup staged: only the suffix past the
// pinned prefix on a hit, the whole prompt otherwise. It never calls
// the cache, so it may run on a worker goroutine.
func (s *prefixSession) Prefill(prompt []model.Token) []float32 {
	var dist []float32
	if s.pinned != nil {
		dist = s.inner.(prefixSharer).PrefillShared(s.pinned, prompt)
	} else {
		dist = s.inner.Prefill(prompt)
	}
	s.filled = true // only now: a prefill that panics leaves nothing to insert
	return dist
}

// publish inserts the prefilled prompt's pages for later requests; a
// guest's publish does nothing. Scheduler goroutine only.
func (s *prefixSession) publish() {
	if s.filled && !s.guest && s.arena() != nil {
		s.cache.Insert(s.ns, s.prompt, s.arena())
	}
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
// policy), releases the pin, and closes the inner session. A session
// retired before its prefill inserts nothing.
func (s *prefixSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.publish()
	if s.pinned != nil {
		s.pinned.Release()
		s.pinned = nil
	}
	if c, ok := s.inner.(model.Closer); ok {
		c.Close()
	}
}

// admissionModels returns the models an admission opens its sessions
// on: the configured ones, or — when cache is set — wrappers whose
// sessions look up in cache and append themselves to *opened, as
// guests when guest is set.
func (e *Engine) admissionModels(opened *[]*prefixSession, cache *kvcache.PrefixCache, guest bool) (model.Model, []model.Model) {
	if cache == nil {
		return e.cfg.LLM, e.cfg.SSMs
	}
	llm := prefixModel{Model: e.cfg.LLM, cache: cache, ns: "llm", guest: guest, opened: opened}
	ssms := make([]model.Model, len(e.cfg.SSMs))
	for i, m := range e.cfg.SSMs {
		ssms[i] = prefixModel{Model: m, cache: cache, ns: fmt.Sprintf("ssm%d", i), guest: guest, opened: opened}
	}
	return llm, ssms
}

// sharesModels reports whether e and o serve the same LLM and SSM
// model objects, in the same order: then a page one's prefix cache
// holds under a namespace is exactly the page the other would compute,
// so a guest of e may adopt from o's cache. Models whose dynamic type
// cannot be compared are never the same.
func (e *Engine) sharesModels(o *Engine) bool {
	if len(e.cfg.SSMs) != len(o.cfg.SSMs) || !sameModel(e.cfg.LLM, o.cfg.LLM) {
		return false
	}
	for i, m := range e.cfg.SSMs {
		if !sameModel(m, o.cfg.SSMs[i]) {
			return false
		}
	}
	return true
}

// sameModel is a == b without the panic == raises on an uncomparable
// dynamic type.
func sameModel(a, b model.Model) bool {
	return reflect.ValueOf(a).Comparable() && a == b
}

// waitsForInsert reports whether st should sit out this iteration's
// prefill phase: one of its sessions could adopt more of its prompt
// from the pages an earlier request of the phase (staged) is about to
// insert than from what the cache holds now. It then prefills one
// iteration later, adopting those pages (DESIGN.md §10.3). A guest
// inserts nothing, so it is never a donor, and a donor's inserts land
// in its own cache, so only a request looking up in that cache waits
// for them: a guest that adopts from its host's cache never does.
func waitsForInsert(st *reqState, staged []*reqState) bool {
	if len(staged) == 0 {
		return false
	}
	prompt := st.req.Prompt
	for _, s := range st.prefix {
		if s.arena() == nil {
			continue
		}
		pageRows := s.arena().PageRows()
		have := -1 // looked up only when some donor could share
		for _, donor := range staged {
			if donor.req.Guest {
				continue
			}
			for _, d := range donor.prefix {
				if d.ns != s.ns || d.cache != s.cache {
					continue
				}
				n := kvcache.InsertedMatch(d.prompt, prompt, len(prompt)-1, pageRows)
				if n == 0 {
					continue
				}
				if have < 0 {
					have = s.cache.Match(s.ns, prompt, len(prompt)-1)
				}
				if n > have {
					return true
				}
			}
		}
	}
	return false
}

// PrefixCacheStats snapshots the engine's prefix cache; the zero value
// is returned when Config.PrefixCacheBytes is unset.
func (e *Engine) PrefixCacheStats() kvcache.PrefixStats {
	if e.prefix == nil {
		return kvcache.PrefixStats{}
	}
	return e.prefix.Stats()
}
