package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/tree"
)

// spanKind names the model.Session call a span times.
type spanKind uint8

const (
	kPrefill spanKind = iota
	kPrefillShared
	kDecode
	kDecodeTree
	kAccept
	numKinds
)

var kindNames = [numKinds]string{"prefill", "prefill_shared", "decode", "decode_tree", "accept"}

// span is one timed session call. n is the prompt length (prefills),
// the tree size (DecodeTree) or the accepted run (Accept); shared is the
// prefix length a shared prefill adopted.
type span struct {
	kind       spanKind
	start, dur time.Duration // start is relative to the recorder's epoch
	n, shared  int32
}

// recorder owns every traced session of one stack. Spans stay in memory
// until the run ends.
type recorder struct {
	epoch time.Time

	mu       sync.Mutex
	sessions []*tracedSession // guarded by mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// model wraps m so every session it opens is timed under role.
func (r *recorder) model(m model.Model, role string) model.Model {
	return tracedModel{Model: m, role: role, rec: r}
}

type tracedModel struct {
	model.Model
	role string
	rec  *recorder
}

func (m tracedModel) NewSession() model.Session {
	s := &tracedSession{inner: m.Model.NewSession(), role: m.role, rec: m.rec, spans: make([]span, 0, 64)}
	m.rec.mu.Lock()
	s.id = len(m.rec.sessions)
	m.rec.sessions = append(m.rec.sessions, s)
	m.rec.mu.Unlock()
	return s
}

// prefixSharer is the session capability core's prefix cache asserts.
// The decorator must forward it (and model.Closer, model.CacheSizer):
// without it the engine silently prefills cold and never inserts.
type prefixSharer interface {
	Arena() *kvcache.Arena
	PrefillShared(h *kvcache.PinnedPrefix, prompt []model.Token) []float32
}

// tracedSession times every call into the wrapped session. A session is
// stepped by one goroutine at a time, so its span slice needs no lock;
// it is read only after the session's request has finished.
type tracedSession struct {
	inner model.Session
	id    int
	role  string
	rec   *recorder
	spans []span
}

var (
	_ model.Session    = (*tracedSession)(nil)
	_ model.Closer     = (*tracedSession)(nil)
	_ model.CacheSizer = (*tracedSession)(nil)
	_ prefixSharer     = (*tracedSession)(nil)
)

func (s *tracedSession) record(k spanKind, t0 time.Time, n, shared int) {
	s.spans = append(s.spans, span{
		kind: k, start: t0.Sub(s.rec.epoch), dur: time.Since(t0), n: int32(n), shared: int32(shared),
	})
}

func (s *tracedSession) Prefill(prompt []model.Token) []float32 {
	t0 := time.Now()
	d := s.inner.Prefill(prompt)
	s.record(kPrefill, t0, len(prompt), 0)
	return d
}

func (s *tracedSession) Decode(tok model.Token) []float32 {
	t0 := time.Now()
	d := s.inner.Decode(tok)
	s.record(kDecode, t0, 1, 0)
	return d
}

func (s *tracedSession) DecodeTree(t *tree.Tree) [][]float32 {
	t0 := time.Now()
	d := s.inner.DecodeTree(t)
	s.record(kDecodeTree, t0, t.Len(), 0)
	return d
}

func (s *tracedSession) Accept(tokens []model.Token) []float32 {
	t0 := time.Now()
	d := s.inner.Accept(tokens)
	s.record(kAccept, t0, len(tokens), 0)
	return d
}

func (s *tracedSession) Len() int { return s.inner.Len() }

// Arena forwards the inner session's paged arena; nil tells the prefix
// cache this session cannot share, exactly as an undecorated one would.
func (s *tracedSession) Arena() *kvcache.Arena {
	if sh, ok := s.inner.(prefixSharer); ok {
		return sh.Arena()
	}
	return nil
}

// PrefillShared is only called after Arena returned non-nil, so the
// inner session is a prefixSharer.
func (s *tracedSession) PrefillShared(h *kvcache.PinnedPrefix, prompt []model.Token) []float32 {
	t0 := time.Now()
	d := s.inner.(prefixSharer).PrefillShared(h, prompt)
	s.record(kPrefillShared, t0, len(prompt), h.Len())
	return d
}

func (s *tracedSession) Close() {
	if c, ok := s.inner.(model.Closer); ok {
		c.Close()
	}
}

func (s *tracedSession) CacheBytes() int {
	if cs, ok := s.inner.(model.CacheSizer); ok {
		return cs.CacheBytes()
	}
	return 0
}

// kindTotals aggregates one role's spans of one kind.
type kindTotals struct {
	calls  int
	dur    time.Duration
	n, sub int64 // summed n, and summed n-1 (the speculated nodes of a tree)
}

// roleTotals aggregates one role's spans by kind.
type roleTotals [numKinds]kindTotals

func (r *roleTotals) busy() time.Duration {
	var d time.Duration
	for _, k := range r {
		d += k.dur
	}
	return d
}

// totals aggregates the spans that started inside [from, to), per role.
func (r *recorder) totals(from, to time.Time) map[string]*roleTotals {
	lo, hi := from.Sub(r.epoch), to.Sub(r.epoch)
	out := map[string]*roleTotals{"llm": {}, "ssm": {}}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sessions {
		rt := out[s.role]
		for _, sp := range s.spans {
			if sp.start < lo || sp.start >= hi {
				continue
			}
			k := &rt[sp.kind]
			k.calls++
			k.dur += sp.dur
			k.n += int64(sp.n)
			k.sub += int64(sp.n) - 1
		}
	}
	return out
}

// write stores every span, and one span per request, as CSV:
// scope,id,role,kind,start_us,dur_us,n,shared. Session spans have scope
// "session" and the session's id; request spans have scope "request",
// the request's index, and span the whole round trip from due to result.
func (r *recorder) write(path string, samples []sample) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() { _ = f.Close() }() // closed below on success; this covers the error paths
	w := bufio.NewWriter(f)
	us := func(d time.Duration) int64 { return d.Microseconds() }
	fmt.Fprintln(w, "scope,id,role,kind,start_us,dur_us,n,shared")
	r.mu.Lock()
	for _, s := range r.sessions {
		for _, sp := range s.spans {
			fmt.Fprintf(w, "session,%d,%s,%s,%d,%d,%d,%d\n",
				s.id, s.role, kindNames[sp.kind], us(sp.start), us(sp.dur), sp.n, sp.shared)
		}
	}
	r.mu.Unlock()
	for _, s := range samples {
		fmt.Fprintf(w, "request,%d,client,request,%d,%d,%d,0\n",
			s.req, us(s.due.Sub(r.epoch)), us(s.done.Sub(s.due)), s.tokens)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace write: %w", err)
	}
	return f.Close()
}
