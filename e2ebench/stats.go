package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a percentile
// before it is reported: a p90 needs at least 100 samples, a p50 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (q in (0, 1)) and
// the sample count it rests on; ok is false when fewer than minBeyond
// samples lie beyond it, in which case the value must not be reported.
func percentile(xs []float64, q float64) (v float64, n int, ok bool) {
	n = len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, n, false
	}
	return s[k-1], n, true
}

// sample is one request as the load generator saw it. Every time is
// taken on the generator's side; due is when the request should have
// been sent: when its client became free to send it (closed loop), or
// its scheduled time (open loop, which a burst is).
type sample struct {
	req   int // index into the workload's request list
	due   time.Time
	sent  time.Time
	first time.Time // first token received (zero if none)
	last  time.Time // last token received
	done  time.Time // terminal result received
	// tokens is the number of output tokens received; chunks the number
	// of deliveries they came in (several tokens share one chunk when an
	// iteration commits a speculated run).
	tokens, chunks int
	output         []int
	// failed marks a refused, errored or wrong request: it counts as an
	// SLO miss and is left out of the latency distributions.
	failed bool
	// Engine-reported times, and the time spent inside the submit call.
	queueWait, engineLatency, submit time.Duration
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ttft is the time to first token, from when the request was due.
func (s sample) ttft() time.Duration { return s.first.Sub(s.due) }

// tpot is the mean time per output token after the first:
// (last token - first token) / (n - 1). Tokens delivered in one chunk
// share an arrival time, so a speculated run of k tokens counts as k
// tokens over one gap. ok is false below two tokens.
func (s sample) tpot() (time.Duration, bool) {
	if s.tokens < 2 {
		return 0, false
	}
	return s.last.Sub(s.first) / time.Duration(s.tokens-1), true
}

// latency is the time from due to the terminal result.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent.Sub(s.due) }

// slo holds one workload's latency limits.
type slo struct {
	ttft, tpot time.Duration
}

// meets reports whether a request met both limits; failed requests
// never do.
func (l slo) meets(s sample) bool {
	if s.failed {
		return false
	}
	tp, ok := s.tpot()
	return ok && s.ttft() <= l.ttft && tp <= l.tpot
}

// latencies gathers the per-request distributions of the successful
// requests (lag: of all requests), in milliseconds (submit: µs).
type latencies struct {
	ttft, tpot, latency, lag, queueWait, overhead, submit []float64
}

func collect(samples []sample) latencies {
	var l latencies
	for _, s := range samples {
		l.lag = append(l.lag, ms(s.lag()))
		if s.failed {
			continue
		}
		l.ttft = append(l.ttft, ms(s.ttft()))
		if tp, ok := s.tpot(); ok {
			l.tpot = append(l.tpot, ms(tp))
		}
		l.latency = append(l.latency, ms(s.latency()))
		l.queueWait = append(l.queueWait, ms(s.queueWait))
		l.overhead = append(l.overhead, ms(s.done.Sub(s.sent)-s.engineLatency))
		l.submit = append(l.submit, float64(s.submit)/float64(time.Microsecond))
	}
	return l
}

// sloShare is the share of all attempted requests that met the limits.
func sloShare(samples []sample, l slo) float64 {
	if len(samples) == 0 {
		return 0
	}
	ok := 0
	for _, s := range samples {
		if l.meets(s) {
			ok++
		}
	}
	return float64(ok) / float64(len(samples))
}
