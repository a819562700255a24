package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/tensor"
	"specinfer/internal/workload"
)

// minSamples is the fewest successful requests a measured phase needs:
// every reported p90 must have at least minBeyond samples beyond it.
const minSamples = 100

// workloadSpec is one traffic mix and the stack that serves it.
type workloadSpec struct {
	name              string
	front             front
	replicas, workers int
	mode              core.Mode
	stochastic        bool
	limits            slo
	// plan builds, from the seed, the warm-up requests and enough measured
	// requests for seconds of load.
	plan func(seed uint64, seconds float64) (warm, reqs []workload.Request)
}

const (
	chatPromptLen = 16
	chatGenLen    = 128 // the paper's generation length
	chatClients   = 2
	chatPool      = 128

	fleetGroups    = 32
	fleetTraceSeed = 7070
	fleetPrefixLen = 256 // four full 64-token KV pages
	fleetSuffixLen = 16
	fleetGenLen    = 16
	fleetClients   = 4
	fleetPool      = 256

	burstSize      = 12
	burstTrickle   = 6
	burstPromptLen = 16
	burstGenLen    = 32
)

// warmSalt separates the warm-up requests' random stream from the
// measured ones'.
const warmSalt = 0x5eed

var workloads = []*workloadSpec{
	{
		name: "chat-incr", front: viaHTTP, replicas: 1, workers: 2, mode: core.Incremental,
		limits: slo{ttft: 15 * time.Millisecond, tpot: time.Millisecond},
		plan:   chatPlan,
	},
	{
		name: "chat-tree", front: viaHTTP, replicas: 1, workers: 2, mode: core.TreeSpec,
		limits: slo{ttft: 50 * time.Millisecond, tpot: 8 * time.Millisecond},
		plan:   chatPlan,
	},
	{
		name: "prefix-fleet", front: viaRouter, replicas: 2, workers: 1, mode: core.TreeSpec,
		limits: slo{ttft: 150 * time.Millisecond, tpot: 30 * time.Millisecond},
		plan:   fleetPlan,
	},
	{
		name: "burst-stoch", front: viaEngine, replicas: 1, workers: 2, mode: core.TreeSpec, stochastic: true,
		limits: slo{ttft: 300 * time.Millisecond, tpot: 8 * time.Millisecond},
		plan:   burstPlan,
	},
}

func lookupWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// checkCores refuses a workload whose engines would step more requests
// in parallel than the Go scheduler has processors: the extra workers
// would time-slice and measure the host, not the code.
func checkCores(w *workloadSpec) error {
	if n, max := w.replicas*w.workers, runtime.GOMAXPROCS(0); n > max {
		return fmt.Errorf("workload %s needs %d replicas x %d workers = %d processors, GOMAXPROCS is %d",
			w.name, w.replicas, w.workers, n, max)
	}
	return nil
}

// chatPlan: short unshared prompts, 128 new tokens, served closed loop.
// The clients cycle through chatPool distinct prompts, more than a
// chat-tree run uses, so the offline reference stays cheap on the much
// faster chat-incr. A repeated 16-token prompt still misses the prefix
// cache, which only shares a prefix strictly shorter than the prompt.
func chatPlan(seed uint64, seconds float64) (warm, reqs []workload.Request) {
	m := markov()
	warm = m.Trace(tensor.NewRNG(seed^warmSalt), 2*chatClients, chatPromptLen, chatGenLen)
	pool := m.Trace(tensor.NewRNG(seed), chatPool, chatPromptLen, chatGenLen)
	return warm, cycle(pool, int(seconds*150)+4*minSamples)
}

// fleetPlan: grouped shared-prefix traffic, served closed loop by
// fleetClients in-process clients that cycle through fleetPool requests.
// The tenants are part of the workload and the same for every seed: a
// fixed set of fleetGroups system prompts and a fixed tenant for each
// pool slot, so the replica split does not change with the seed. The
// seed draws what each request asks: its suffix. The warm-up is one
// request per tenant, so the measured phase adopts cached prefixes.
func fleetPlan(seed uint64, seconds float64) (warm, reqs []workload.Request) {
	m := markov()
	shape := tensor.NewRNG(fleetTraceSeed)
	prefixes := make([][]int, fleetGroups)
	for g := range prefixes {
		prefixes[g] = m.Generate(shape, fleetPrefixLen)
	}
	rng := tensor.NewRNG(seed)
	request := func(id, g int) workload.Request {
		p := append(append([]int(nil), prefixes[g]...), m.Generate(rng, fleetSuffixLen)...)
		return workload.Request{ID: id, Prompt: p, MaxNewTok: fleetGenLen, Group: g}
	}
	for g := range prefixes {
		warm = append(warm, request(g, g))
	}
	pool := make([]workload.Request, fleetPool)
	for i := range pool {
		pool[i] = request(i, shape.Intn(fleetGroups))
	}
	return warm, cycle(pool, int(seconds*400)+4*minSamples)
}

// burstPlan: unshared prompts served in rounds of burstSize requests
// due at once, then burstTrickle solitary ones (see bursts), with more
// rounds than a run gets through.
func burstPlan(seed uint64, seconds float64) (warm, reqs []workload.Request) {
	m := markov()
	warm = m.Trace(tensor.NewRNG(seed^warmSalt), 4, burstPromptLen, burstGenLen)
	perRound := burstSize + burstTrickle
	rounds := int(seconds*5) + (minSamples+perRound-1)/perRound
	return warm, m.Trace(tensor.NewRNG(seed), rounds*perRound, burstPromptLen, burstGenLen)
}

// cycle repeats pool to n requests with IDs 0..n-1.
func cycle(pool []workload.Request, n int) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = pool[i%len(pool)]
		reqs[i].ID = i
	}
	return reqs
}

// warmUp serves the warm-up requests one at a time, untimed: code
// paths, allocator and (for the fleet) the group prefixes are warm
// before measuring.
func (w *workloadSpec) warmUp(st *stack, warm []workload.Request) error {
	send := inProcess(st.submit)
	if w.front == viaHTTP {
		clients, closeAll := httpClients(st.url, 1)
		defer closeAll()
		send = clients[0]
	}
	for i, r := range warm {
		if s := send(r); s.failed {
			return fmt.Errorf("warm-up request %d failed", i)
		}
	}
	return nil
}

// phase is one measured stretch of serving.
type phase struct {
	samples []sample
	t0, end time.Time
	cpu     time.Duration // process CPU time over [t0, end]
	rss     []float64     // resident memory samples, MiB
	c0, c1  counters
	m0, m1  runtime.MemStats
}

func (p *phase) seconds() float64 { return p.end.Sub(p.t0).Seconds() }

func (p *phase) tokens() int {
	n := 0
	for _, s := range p.samples {
		n += s.tokens
	}
	return n
}

func (p *phase) tokensPerSec() float64 { return ratio(float64(p.tokens()), p.seconds()) }

func (p *phase) cpuPerKToken() float64 {
	return ratio(p.cpu.Seconds()*1000, float64(p.tokens()))
}

// measure runs one measured phase of about horizon seconds on st: the
// load stops once the horizon has passed and at least minDone requests
// have finished. The phase ends when the last request has finished.
func (w *workloadSpec) measure(st *stack, reqs []workload.Request, horizon float64, minDone int) phase {
	var p phase
	runtime.ReadMemStats(&p.m0)
	p.c0 = st.counters()
	stopRSS := watchRSS()
	cpu0 := cpuTime()
	p.t0 = time.Now()
	deadline := p.t0.Add(time.Duration(horizon * float64(time.Second)))
	switch w.front {
	case viaHTTP:
		clients, closeAll := httpClients(st.url, chatClients)
		p.samples = closedLoop(reqs, clients, deadline, minDone)
		closeAll()
	case viaRouter:
		clients := make([]client, fleetClients)
		for i := range clients {
			clients[i] = inProcess(st.submit)
		}
		p.samples = closedLoop(reqs, clients, deadline, minDone)
	case viaEngine:
		p.samples = bursts(st.submit, reqs, burstSize, burstTrickle, deadline, minDone)
	}
	p.end = time.Now()
	for _, s := range p.samples {
		if s.done.After(p.end) {
			p.end = s.done
		}
	}
	p.cpu = cpuTime() - cpu0
	p.rss = stopRSS()
	p.c1 = st.counters()
	runtime.ReadMemStats(&p.m1)
	return p
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
