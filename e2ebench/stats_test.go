package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/workload"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{250, 0.9, true, 225},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{0, 0.5, false, 0},
	} {
		v, n, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || n != c.n || (ok && v != c.want) {
			t.Errorf("percentile(1..%d, %v) = %v, n=%d, ok=%v; want %v, n=%d, ok=%v",
				c.n, c.q, v, n, ok, c.want, c.n, c.ok)
		}
	}
}

func TestTPOTCountsEveryTokenOfAChunk(t *testing.T) {
	t0 := time.Now()
	s := sample{due: t0, first: t0.Add(10 * time.Millisecond), last: t0.Add(38 * time.Millisecond), tokens: 8}
	got, ok := s.tpot()
	if !ok || got != 4*time.Millisecond {
		t.Fatalf("tpot = %v, %v; want 4ms: 28ms over the 7 gaps after the first of 8 tokens", got, ok)
	}
	if _, ok := (sample{tokens: 1}).tpot(); ok {
		t.Fatal("tpot of a one-token request must not be reported")
	}
}

// TestHTTPStreamChunks feeds httpGenerate a stream whose iterations
// committed 3, 4 and 1 tokens: all 8 tokens count, in 3 chunks, and the
// first and last token times are those of the first and last chunk.
func TestHTTPStreamChunks(t *testing.T) {
	chunks := [][]int{{1, 2, 3}, {4, 5, 6, 7}, {8}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		for _, c := range chunks {
			_ = enc.Encode(map[string]any{"tokens": c})
			w.(http.Flusher).Flush()
			time.Sleep(5 * time.Millisecond)
		}
		_ = enc.Encode(map[string]any{"done": true, "result": map[string]any{
			"tokens": []int{1, 2, 3, 4, 5, 6, 7, 8}, "latency_ms": 12.5, "queue_delay_ms": 0.5,
		}})
	}))
	defer srv.Close()
	s := httpGenerate(srv.Client(), srv.URL, workload.Request{Prompt: []int{1}, MaxNewTok: 8})
	if s.failed || s.tokens != 8 || s.chunks != 3 || !equalTokens(s.output, []int{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("sample = failed %v tokens %d chunks %d output %v", s.failed, s.tokens, s.chunks, s.output)
	}
	tp, _ := s.tpot()
	if gap := s.last.Sub(s.first); gap < 10*time.Millisecond || tp != gap/7 {
		t.Fatalf("first-to-last %v, tpot %v: want >= 10ms over 7 gaps", gap, tp)
	}
	if s.engineLatency != 12500*time.Microsecond || s.queueWait != 500*time.Microsecond {
		t.Fatalf("engine times %v %v", s.engineLatency, s.queueWait)
	}

	// A result that disagrees with the streamed tokens is a failure.
	chunks = [][]int{{1, 2, 3}, {4, 5, 6, 7}, {9}}
	if s := httpGenerate(srv.Client(), srv.URL, workload.Request{Prompt: []int{1}, MaxNewTok: 8}); !s.failed {
		t.Fatal("mismatched stream not marked failed")
	}
}

// TestOpenLoopTimesFromDue stalls the generator inside the first submit
// call: the second request goes out late, and its latency and time to
// first token still count from when it was due, with the stall reported
// as generator lag.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 30 * time.Millisecond
	calls := 0
	submit := func(ctx context.Context, req workload.Request) (<-chan model.Token, <-chan core.Result, error) {
		calls++
		if calls == 1 {
			time.Sleep(stall)
		}
		toks := make(chan model.Token, 2)
		res := make(chan core.Result, 1)
		toks <- 7
		toks <- 8
		close(toks)
		res <- core.Result{RequestResult: core.RequestResult{Output: []int{7, 8}}}
		return toks, res, nil
	}
	reqs := []workload.Request{{Prompt: []int{1}, MaxNewTok: 2}, {Prompt: []int{1}, MaxNewTok: 2}}
	t0 := time.Now()
	ss := openLoop(context.Background(), submit, reqs, []time.Duration{0, 5 * time.Millisecond}, t0)
	late := ss[1]
	if !late.due.Equal(t0.Add(5 * time.Millisecond)) {
		t.Fatalf("due %v, want t0+5ms", late.due.Sub(t0))
	}
	if late.lag() < stall-5*time.Millisecond {
		t.Fatalf("lag %v, want at least %v", late.lag(), stall-5*time.Millisecond)
	}
	if late.ttft() < late.lag() || late.latency() < late.lag() {
		t.Fatalf("ttft %v latency %v must include the lag %v", late.ttft(), late.latency(), late.lag())
	}
	if l := collect(ss); len(l.lag) != 2 || l.lag[1] != ms(late.lag()) {
		t.Fatalf("lag samples %v, want the second to read %v", l.lag, late.lag())
	}
}

// TestBurstRounds runs rounds of a 2-request burst and a 1-request
// trickle until 5 requests have finished: two whole rounds, every request
// once, each trickle request due only after its burst has finished.
func TestBurstRounds(t *testing.T) {
	submit := func(ctx context.Context, req workload.Request) (<-chan model.Token, <-chan core.Result, error) {
		time.Sleep(time.Millisecond)
		toks := make(chan model.Token, 1)
		res := make(chan core.Result, 1)
		toks <- req.ID
		close(toks)
		res <- core.Result{RequestResult: core.RequestResult{Output: []int{req.ID}}}
		return toks, res, nil
	}
	reqs := make([]workload.Request, 9)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, Prompt: []int{1}, MaxNewTok: 1}
	}
	ss := bursts(submit, reqs, 2, 1, time.Now(), 5)
	if len(ss) != 6 {
		t.Fatalf("%d samples, want 6: rounds run whole until 5 have finished", len(ss))
	}
	for i, s := range ss {
		if s.req != i || s.failed || !equalTokens(s.output, []int{i}) {
			t.Fatalf("sample %d: req %d failed %v output %v", i, s.req, s.failed, s.output)
		}
	}
	for _, r := range []int{0, 3} {
		if !ss[r].due.Equal(ss[r+1].due) || ss[r+2].due.Before(ss[r].done) || ss[r+2].due.Before(ss[r+1].done) {
			t.Fatalf("round at %d: a burst shares one due time and its trickle follows it", r)
		}
	}
}

func TestFailuresAreSLOMisses(t *testing.T) {
	t0 := time.Now()
	good := sample{due: t0, sent: t0, first: t0.Add(time.Millisecond), last: t0.Add(3 * time.Millisecond),
		done: t0.Add(3 * time.Millisecond), tokens: 3}
	slow := good
	slow.first = t0.Add(50 * time.Millisecond)
	slow.last, slow.done = slow.first.Add(2*time.Millisecond), slow.first.Add(2*time.Millisecond)
	failed := good
	failed.failed = true
	refused := sample{due: t0, sent: t0, done: t0, failed: true}
	limits := slo{ttft: 10 * time.Millisecond, tpot: 2 * time.Millisecond}
	ss := []sample{good, slow, failed, refused}
	if got := sloShare(ss, limits); got != 0.25 {
		t.Fatalf("slo share %v, want 0.25: only the good request meets the limits", got)
	}
	if l := collect(ss); len(l.ttft) != 2 || len(l.lag) != 4 {
		t.Fatalf("latency samples %d (want the 2 successes), lag samples %d (want all 4)", len(l.ttft), len(l.lag))
	}
}
