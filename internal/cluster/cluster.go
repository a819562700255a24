// Package cluster turns the token-level execution trace of a serving-
// engine run (core.IterationRecord) into wall-clock latency on the
// simulated testbed: per iteration it prices the SSM speculation phase
// (data-parallel SSMs, §5.1), the LLM verification pass (tensor + pipeline
// parallel, gpu.LLMStep), the request-manager overhead, and — for
// offloading deployments — the PCIe weight-streaming step of Figure 8.
//
// The separation of concerns this package completes: the engine *measures*
// how many tokens/steps/tree-nodes a policy needs on real (small) models;
// this package *prices* those counts on the paper's A10 hardware. Neither
// side assumes the other's numbers.
package cluster

import (
	"fmt"

	"specinfer/internal/core"
	"specinfer/internal/gpu"
	"specinfer/internal/metrics"
	"specinfer/internal/model"
)

// Deployment describes where and how the LLM (and SSMs) execute.
type Deployment struct {
	// LLM is the served model's geometry (one of the model.Spec values).
	LLM model.Spec
	// SSM is the speculative model geometry (ignored for incremental).
	SSM model.Spec
	// Plan is the LLM parallelization strategy.
	Plan gpu.Plan
	// Device is the GPU type.
	Device gpu.Device
	// Offload, when true, streams LLM weights from CPU DRAM over Host
	// each step instead of keeping them in HBM (Figure 8's setting).
	Offload bool
	// Host is the CPU-GPU link used when Offload is set.
	Host gpu.Link
	// SchedulerOverhead is the per-iteration request-manager cost
	// (scheduling, tree merge, verification bookkeeping); §5.1 argues it
	// is negligible next to LLM execution, and the default reflects that.
	SchedulerOverhead float64
	// SequenceDecode prices verification with the sequence-based
	// decoding baseline of §4.2/Figure 11 — one kernel per candidate
	// sequence, shared prefixes recomputed — instead of SpecInfer's
	// fused tree-based parallel decoding.
	SequenceDecode bool
	// Pricer, when non-nil, replaces the built-in LLM step pricing (used
	// by the offloading experiments to plug in the memory-planned
	// offload.Executor).
	Pricer StepPricer
}

// StepPricer prices one LLM decoding iteration.
type StepPricer interface {
	StepTime(gpu.StepParams) float64
}

func (d Deployment) withDefaults() Deployment {
	if d.Device.Name == "" {
		d.Device = gpu.A10()
	}
	if d.Plan.TP == 0 {
		d.Plan = gpu.SingleGPU()
	}
	if d.Host.Name == "" {
		d.Host = gpu.PCIeGen4()
	}
	if d.SchedulerOverhead == 0 {
		d.SchedulerOverhead = 100e-6
	}
	return d
}

// Report aggregates a priced run.
type Report struct {
	TotalSeconds    float64
	TotalTokens     int
	Iterations      int
	PerTokenLatency float64 // seconds per generated token
	IterLatency     metrics.Summary
	SSMSeconds      float64 // share spent speculating
	LLMSeconds      float64 // share spent verifying/decoding
	// PerRequest holds per-request accounting, keyed by request ID
	// (core.ReqIter.ID).
	PerRequest map[int]RequestLatency
	// RequestPerToken summarizes the per-request seconds-per-token
	// distribution (tail latency: P50/P90/P99).
	RequestPerToken metrics.Summary
	// EnergyJoules is the total device energy of the run (HBM traffic +
	// arithmetic + PCIe streaming when offloading); EnergyPerToken is the
	// paper's §2 argument made measurable: fewer decoding steps mean
	// fewer full passes over the weights.
	EnergyJoules   float64
	EnergyPerToken float64
}

// RequestLatency is one request's simulated service accounting.
type RequestLatency struct {
	Iterations int
	Seconds    float64 // wall-clock spent in iterations serving it
	Tokens     int
}

// PerToken returns the request's seconds per generated token.
func (r RequestLatency) PerToken() float64 {
	if r.Tokens == 0 {
		return 0
	}
	return r.Seconds / float64(r.Tokens)
}

func (r Report) String() string {
	return fmt.Sprintf("tokens=%d iters=%d total=%.3fs per-token=%.2fms (ssm %.0f%%, llm %.0f%%)",
		r.TotalTokens, r.Iterations, r.TotalSeconds, r.PerTokenLatency*1e3,
		100*r.SSMSeconds/r.TotalSeconds, 100*r.LLMSeconds/r.TotalSeconds)
}

// Simulate prices an engine run on the deployment.
func Simulate(dep Deployment, iters []core.IterationRecord) Report {
	dep = dep.withDefaults()
	rep := Report{PerRequest: map[int]RequestLatency{}}
	var iterTimes []float64
	for _, it := range iters {
		t := iterationTime(dep, it, &rep)
		iterTimes = append(iterTimes, t)
		rep.TotalSeconds += t
		rep.Iterations++
		for _, r := range it.Reqs {
			rep.TotalTokens += r.Committed
			rl := rep.PerRequest[r.ID]
			rl.Iterations++
			rl.Seconds += t
			rl.Tokens += r.Committed
			rep.PerRequest[r.ID] = rl
		}
	}
	var perTok []float64
	for _, rl := range rep.PerRequest {
		perTok = append(perTok, rl.PerToken())
	}
	rep.RequestPerToken = metrics.Summarize(perTok)
	if rep.TotalTokens > 0 {
		rep.EnergyPerToken = rep.EnergyJoules / float64(rep.TotalTokens)
	}
	if rep.TotalTokens > 0 {
		// Per-token latency in the paper's sense: wall-clock per generated
		// token for a single serving stream; with batching, a step emits
		// one token per active request, so the effective per-token latency
		// of each request is step time / 1 — we report the mean iteration
		// time divided by mean tokens committed per request per iteration.
		var sumBatch int
		for _, it := range iters {
			sumBatch += len(it.Reqs)
		}
		meanCommitPerReq := float64(rep.TotalTokens) / float64(sumBatch)
		meanIter := rep.TotalSeconds / float64(rep.Iterations)
		rep.PerTokenLatency = meanIter / meanCommitPerReq
	}
	rep.IterLatency = metrics.Summarize(iterTimes)
	return rep
}

// IterationPricer returns a per-iteration pricing function suitable for
// core.Engine.RunOnline: the same model Simulate applies in batch,
// exposed as a clock for arrival-driven co-simulation.
func (d Deployment) IterationPricer() core.IterationPricer {
	dep := d.withDefaults()
	return func(it core.IterationRecord) float64 {
		var scratch Report
		return iterationTime(dep, it, &scratch)
	}
}

// iterationTime prices one engine iteration.
func iterationTime(dep Deployment, it core.IterationRecord, rep *Report) float64 {
	batch := len(it.Reqs)
	if batch == 0 {
		return 0
	}
	meanCtx := 0
	for _, r := range it.Reqs {
		meanCtx += r.CtxLen
	}
	meanCtx /= batch

	// --- Speculation phase: SpecSteps SSM levels. Multiple SSMs run data
	// parallel on separate GPUs, so the pool costs the same as one SSM.
	var ssmTime float64
	if it.SpecSteps > 0 {
		totalNodes := 0
		for _, r := range it.Reqs {
			totalNodes += r.TreeNodes
		}
		perLevel := (totalNodes + it.SpecSteps - 1) / it.SpecSteps
		ssmTime = float64(it.SpecSteps) * gpu.SSMStep(dep.SSM, dep.Device, perLevel, meanCtx)
	}

	// --- Verification / decoding phase.
	positions := 0
	kernels := 0
	for _, r := range it.Reqs {
		if it.SpecSteps == 0 {
			positions++
			kernels++
			continue
		}
		if dep.SequenceDecode {
			positions += r.TreePathPositions
			kernels += r.TreeLeaves
		} else {
			positions += r.TreeNodes
			kernels++
		}
	}
	if positions < batch {
		positions = batch // empty trees still decode one token
	}
	params := gpu.StepParams{
		Batch:       batch,
		Positions:   positions,
		AttnKernels: kernels,
		CtxLen:      meanCtx,
	}
	var llmTime float64
	switch {
	case dep.Pricer != nil:
		llmTime = dep.Pricer.StepTime(params)
	case dep.Offload:
		llmTime = gpu.OffloadStep(dep.LLM, dep.Device, dep.Host, params)
	default:
		llmTime = gpu.LLMStep(dep.LLM, dep.Plan, dep.Device, params)
	}
	if dep.Offload || dep.Pricer != nil {
		rep.EnergyJoules += gpu.OffloadStepEnergy(dep.LLM, params)
	} else {
		rep.EnergyJoules += gpu.StepEnergy(dep.LLM, params)
	}
	if it.SpecSteps > 0 {
		rep.EnergyJoules += float64(it.SpecSteps) * gpu.StepEnergy(dep.SSM, gpu.StepParams{
			Batch: batch, Positions: batch, AttnKernels: batch, CtxLen: meanCtx,
		})
	}

	rep.SSMSeconds += ssmTime
	rep.LLMSeconds += llmTime
	return ssmTime + llmTime + dep.SchedulerOverhead
}

// ShardedTrace describes a shared-prefix trace placed across engine
// replicas: Requests requests in Groups equal-size groups (request i
// belongs to group i mod Groups, matching the deterministic assignment
// of workload.GroupedSharedPrefixTrace at mix=1), each prompt opening
// with a PrefixLen-token group prefix and diverging into a
// SuffixLen-token continuation.
type ShardedTrace struct {
	Replicas  int
	Groups    int
	Requests  int
	PrefixLen int
	SuffixLen int
}

// ShardingPrediction is the sim's verdict on one placement policy.
type ShardingPrediction struct {
	// ColdPrefills counts (group, replica) first encounters — prompts
	// prefilled in full; WarmPrefills counts requests that found their
	// group's prefix KV already resident on their replica and computed
	// only the suffix.
	ColdPrefills, WarmPrefills int
	// MeanTTFT is the mean prefill service time per request (seconds),
	// the time-to-first-token component placement controls.
	MeanTTFT float64
	// TotalSeconds is the prefill makespan: the busiest replica's
	// summed prefill work, the throughput bound of the admission phase.
	TotalSeconds float64
}

// PredictSharding replays a shared-prefix trace's placement under
// prefix-affinity routing (affinity=true: a group's requests all land
// on replica group mod Replicas — the idealized consistent-hash
// assignment) or hash-blind round-robin (request i lands on replica i
// mod Replicas), and prices each request's prefill on the deployment:
// the first time a (group, replica) pair meets, the replica prefills
// the full prompt cold; afterwards its prefix cache serves the shared
// pages and only the suffix is computed. This is the cluster-sim side
// of the router's who-wins question; the measured cross-check in
// internal/bench asserts the live router reproduces the predicted
// ordering.
func PredictSharding(dep Deployment, tr ShardedTrace, affinity bool) ShardingPrediction {
	if tr.Replicas < 1 || tr.Groups < 1 || tr.Requests < 0 || tr.PrefixLen < 0 || tr.SuffixLen < 1 {
		panic("cluster: bad ShardedTrace parameters")
	}
	dep = dep.withDefaults()
	price := func(positions, ctx int) float64 {
		params := gpu.StepParams{Batch: 1, Positions: positions, AttnKernels: 1, CtxLen: ctx}
		switch {
		case dep.Pricer != nil:
			return dep.Pricer.StepTime(params)
		case dep.Offload:
			return gpu.OffloadStep(dep.LLM, dep.Device, dep.Host, params)
		default:
			return gpu.LLMStep(dep.LLM, dep.Plan, dep.Device, params)
		}
	}
	full := tr.PrefixLen + tr.SuffixLen
	coldT := price(full, full) + dep.SchedulerOverhead
	warmT := price(tr.SuffixLen, full) + dep.SchedulerOverhead
	seen := make(map[[2]int]bool, tr.Groups*tr.Replicas)
	perReplica := make([]float64, tr.Replicas)
	var pred ShardingPrediction
	var sum float64
	for i := 0; i < tr.Requests; i++ {
		g := i % tr.Groups
		rep := i % tr.Replicas // hash-blind round-robin
		if affinity {
			rep = g % tr.Replicas
		}
		t := warmT
		if !seen[[2]int{g, rep}] {
			seen[[2]int{g, rep}] = true
			pred.ColdPrefills++
			t = coldT
		} else {
			pred.WarmPrefills++
		}
		perReplica[rep] += t
		sum += t
	}
	if tr.Requests > 0 {
		pred.MeanTTFT = sum / float64(tr.Requests)
	}
	for _, s := range perReplica {
		if s > pred.TotalSeconds {
			pred.TotalSeconds = s
		}
	}
	return pred
}

// Baseline identifies one of the third-party serving systems of Figure 7.
// All of them execute incremental decoding with the same parallelization
// and kernel libraries; the paper observes their latency is on par with
// SpecInfer's incremental mode (§6.2). The Factor models the residual
// scheduler/runtime efficiency differences visible in Figure 7's bars.
type Baseline struct {
	Name   string
	Factor float64
}

// Baselines returns the third-party systems in Figure 7's order.
func Baselines() []Baseline {
	return []Baseline{
		{Name: "vLLM", Factor: 1.05},
		{Name: "HuggingFace TGI", Factor: 1.12},
		{Name: "FasterTransformer", Factor: 0.98},
	}
}

// Scale returns a copy of the report with latencies scaled by the
// baseline's runtime-efficiency factor.
func (b Baseline) Scale(r Report) Report {
	r.TotalSeconds *= b.Factor
	r.PerTokenLatency *= b.Factor
	r.SSMSeconds *= b.Factor
	r.LLMSeconds *= b.Factor
	return r
}
