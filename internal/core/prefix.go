package core

import (
	"fmt"
	"reflect"

	"specinfer/internal/kvcache"
	"specinfer/internal/model"
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

// cacheSlot is one session's prefix-cache state. The engine stages
// its cache calls on the scheduler goroutine, in slot order, so cache
// hits, evictions and PrefixSharedToks do not depend on goroutine
// interleaving: lookup pins the longest cached prefix before the
// prefill phase, the phase's worker prefills the session (adopting the
// pinned prefix, or cold), and publish inserts the prompt's pages after
// the phase, so later admissions hit (the pages of a prompt are
// complete and immutable the moment its prefill commits — no need to
// wait for retirement). Release inserts again, re-seeding entries the
// LRU evicted while the request ran, then unpins and closes. A guest
// request (workload.Request.Guest) looks up like any other, in its
// host's cache when it has one, but never inserts: an overflow request
// placed off its affine replica must not copy its tenant's prefix into
// another replica's cache (DESIGN.md §13.5).
type cacheSlot struct {
	// ns isolates the session's entries: "llm" or "ssm<i>", since the
	// LLM and each SSM see the same token streams but cache
	// incompatible K/V geometries and values. Empty when the cache is
	// off or the session has no arena: it then prefills cold and never
	// touches the cache.
	ns     string
	pinned *kvcache.PinnedPrefix // the prefix lookup pinned; nil on a miss
	filled bool                  // the prompt's K/V are in the session's arena
}

// arena returns a session's paged arena, or nil when it cannot share
// pages.
func arena(s model.Session) *kvcache.Arena {
	if sh, ok := s.(prefixSharer); ok {
		return sh.Arena()
	}
	return nil
}

// openSlots gives each of st's sessions a slot that looks up in cache
// (nil: the cache is off).
func (st *reqState) openSlots(cache *kvcache.PrefixCache) {
	st.cache = cache
	st.slots = make([]cacheSlot, len(st.sessions))
	if cache == nil {
		return
	}
	for i, s := range st.sessions {
		switch {
		case arena(s) == nil:
		case i == 0:
			st.slots[i].ns = "llm"
		default:
			st.slots[i].ns = fmt.Sprintf("ssm%d", i-1)
		}
	}
}

// lookup pins the longest cached prefix of the prompt for every
// session that shares pages. Scheduler goroutine only.
func (st *reqState) lookup() {
	prompt := st.req.Prompt
	for i := range st.slots {
		if sl := &st.slots[i]; sl.ns != "" {
			// Cap the lookup one short of the full prompt: at least one
			// token must run through the forward pass to produce the
			// last-token distribution a prefill returns.
			sl.pinned = st.cache.Lookup(sl.ns, prompt, len(prompt)-1)
		}
	}
	if h := st.slots[0].pinned; h != nil {
		st.shared = h.Len()
	}
}

// prefillSession forwards the prompt through session i: only the suffix
// past the pinned prefix on a hit, the whole prompt otherwise. It never
// calls the cache, so it may run on a worker goroutine.
func (st *reqState) prefillSession(i int) []float32 {
	var dist []float32
	if sl := st.slots[i]; sl.pinned != nil {
		dist = st.sessions[i].(prefixSharer).PrefillShared(sl.pinned, st.req.Prompt)
	} else {
		dist = st.sessions[i].Prefill(st.req.Prompt)
	}
	st.slots[i].filled = true // only now: a prefill that panics leaves nothing to insert
	return dist
}

// publish inserts session i's prefilled prompt pages for later
// requests; a guest's publish does nothing. Scheduler goroutine only.
func (st *reqState) publish(i int) {
	if sl := st.slots[i]; sl.filled && sl.ns != "" && !st.req.Guest {
		st.cache.Insert(sl.ns, st.req.Prompt, arena(st.sessions[i]))
	}
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
	for i, sl := range st.slots {
		if sl.ns == "" {
			continue
		}
		pageRows := arena(st.sessions[i]).PageRows()
		have := -1 // looked up only when some donor could share
		for _, donor := range staged {
			if donor.req.Guest || donor.cache != st.cache || donor.slots[i].ns != sl.ns {
				continue
			}
			n := kvcache.InsertedMatch(donor.req.Prompt, prompt, len(prompt)-1, pageRows)
			if n == 0 {
				continue
			}
			if have < 0 {
				have = st.cache.Match(sl.ns, prompt, len(prompt)-1)
			}
			if n > have {
				return true
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
