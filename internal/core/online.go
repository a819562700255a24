package core

import (
	"math"
	"sort"

	"specinfer/internal/workload"
)

// TimedRequest is a request with an arrival time, for online serving.
type TimedRequest struct {
	workload.Request
	// Arrival is the request's arrival time in seconds since the start of
	// the simulation.
	Arrival float64
}

// OnlineResult extends RequestResult with queueing/service timing.
type OnlineResult struct {
	RequestResult
	Arrival float64 // when the request arrived
	Start   float64 // when it was admitted to a batching slot
	Finish  float64 // when its last token was committed
}

// QueueDelay is the time the request waited for a slot.
func (r OnlineResult) QueueDelay() float64 { return r.Start - r.Arrival }

// Latency is the end-to-end request latency (arrival to completion).
func (r OnlineResult) Latency() float64 { return r.Finish - r.Arrival }

// IterationPricer converts one iteration's work into simulated seconds.
// cluster.Deployment.IterationPricer provides the standard implementation;
// the indirection keeps core free of hardware-model dependencies.
type IterationPricer func(IterationRecord) float64

// Run serves the trace to completion with continuous batching and returns
// one result per request (in request order) plus the per-iteration records
// the hardware cost model consumes. It is RunOnline with every request
// arriving at 0 and no clock: an offline batch, not a queue, so the
// speculation policy sees no admission backlog.
func (e *Engine) Run(reqs []workload.Request) ([]RequestResult, []IterationRecord) {
	timed := make([]TimedRequest, len(reqs))
	for i, r := range reqs {
		timed[i].Request = r
	}
	online, iters := e.runTrace(timed, nil)
	results := make([]RequestResult, len(reqs))
	for i, r := range online {
		results[i] = r.RequestResult
	}
	return results, iters
}

// RunOnline serves a trace whose requests arrive over time, co-simulating
// the serving loop with the hardware clock: each engine iteration advances
// the clock by its priced duration, and pending requests are admitted as
// soon as they have arrived AND a continuous-batching slot is free — the
// iteration-level scheduling of Orca (§5.1) under a real arrival process
// rather than an all-at-once backlog.
//
// Results are returned in input order.
func (e *Engine) RunOnline(reqs []TimedRequest, pricer IterationPricer) ([]OnlineResult, []IterationRecord) {
	if pricer == nil {
		panic("core: RunOnline requires an iteration pricer")
	}
	return e.runTrace(reqs, pricer)
}

// runTrace serves reqs through the scheduler loop from a traceSource.
func (e *Engine) runTrace(reqs []TimedRequest, pricer IterationPricer) ([]OnlineResult, []IterationRecord) {
	t := &traceSource{e: e, reqs: reqs, pricer: pricer,
		pending: make([]int, len(reqs)), results: make([]OnlineResult, len(reqs))}
	for i, r := range reqs {
		t.pending[i] = i
		t.results[i].Arrival = r.Arrival
	}
	// Pending queue in arrival order (stable for ties).
	sort.SliceStable(t.pending, func(a, b int) bool {
		return reqs[t.pending[a]].Arrival < reqs[t.pending[b]].Arrival
	})
	e.schedule(t, nil)
	return t.results, t.iters
}

// traceSource feeds the scheduler loop a known request list on a
// virtual clock, in seconds, that only the pricer advances: without one
// (Run) every request arrives at 0 and the clock stands still.
type traceSource struct {
	e       *Engine
	reqs    []TimedRequest
	pending []int // indices into reqs, in arrival order
	pricer  IterationPricer
	now     float64
	results []OnlineResult
	iters   []IterationRecord
}

// admit fills free slots with the requests that have arrived by now; an
// empty batch first idles the clock to the next arrival.
func (t *traceSource) admit(active []*reqState) ([]*reqState, bool) {
	if len(active) == 0 && len(t.pending) > 0 {
		if next := t.reqs[t.pending[0]].Arrival; next > t.now {
			t.now = next
		}
	}
	for len(active) < t.e.cfg.MaxBatch && len(t.pending) > 0 &&
		t.reqs[t.pending[0]].Arrival <= t.now {
		idx := t.pending[0]
		t.pending = t.pending[1:]
		st := t.e.admit(t.reqs[idx].Request, t.e.prefix)
		st.pos = idx
		t.results[idx].Start = t.now
		active = append(active, st)
	}
	return active, len(t.pending) > 0
}

// backlog counts the arrived requests still waiting for a slot (pending
// is sorted by arrival, so the prefix counts). Run reports none: its
// trace is a batch handed over at once, not a queue.
func (t *traceSource) backlog() int {
	if t.pricer == nil {
		return 0
	}
	n := 0
	for n < len(t.pending) && t.reqs[t.pending[n]].Arrival <= t.now {
		n++
	}
	return n
}

func (t *traceSource) iterated(rec IterationRecord, _ []*reqState) {
	t.iters = append(t.iters, rec)
	if t.pricer != nil {
		t.now += t.pricer(rec)
	}
}

func (t *traceSource) retire(st *reqState) {
	t.results[st.pos].RequestResult = st.res
	t.results[st.pos].Finish = t.now
}

// PoissonArrivals draws n arrival times from a Poisson process with the
// given mean rate (requests per second), returning them in ascending
// order. It lives here rather than in workload to keep the arrival-time
// concept next to its consumer.
func PoissonArrivals(rng interface{ Float64() float64 }, n int, rate float64) []float64 {
	if rate <= 0 {
		panic("core: arrival rate must be positive")
	}
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		// Exponential inter-arrival via inverse CDF.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		t += -math.Log(u) / rate
		out[i] = t
	}
	return out
}
