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
	results := make([]OnlineResult, len(reqs))
	for i, r := range reqs {
		results[i] = OnlineResult{Arrival: r.Arrival}
	}

	// Pending queue in arrival order (stable for ties).
	pending := make([]int, len(reqs))
	for i := range pending {
		pending[i] = i
	}
	sort.SliceStable(pending, func(a, b int) bool {
		return reqs[pending[a]].Arrival < reqs[pending[b]].Arrival
	})

	var iters []IterationRecord
	var active []*reqState
	clock := 0.0

	for len(pending) > 0 || len(active) > 0 {
		for len(active) < e.cfg.MaxBatch && len(pending) > 0 &&
			reqs[pending[0]].Arrival <= clock {
			idx := pending[0]
			pending = pending[1:]
			st := e.admit(reqs[idx].Request)
			st.pos = idx
			results[idx].Start = clock
			active = append(active, st)
		}
		if len(active) == 0 {
			// Idle until the next arrival.
			clock = reqs[pending[0]].Arrival
			continue
		}
		// Expose the ready-but-unadmitted backlog to the speculation
		// policy (pending is sorted by arrival, so the prefix counts).
		e.simQueued = 0
		for _, idx := range pending {
			if reqs[idx].Arrival > clock {
				break
			}
			e.simQueued++
		}

		rec := e.runIteration(active, nil)
		iters = append(iters, rec)
		clock += pricer(rec)

		var still []*reqState
		for _, st := range active {
			if st.done {
				results[st.pos].RequestResult = st.res
				results[st.pos].Finish = clock
				e.release(st)
			} else {
				still = append(still, st)
			}
		}
		active = still
	}
	e.simQueued = 0
	return results, iters
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
