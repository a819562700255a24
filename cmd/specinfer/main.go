// Command specinfer serves a synthetic request trace end-to-end with any
// of the three serving strategies (incremental decoding, sequence-based
// speculation, tree-based speculation), prints the generations as
// pseudo-text, and reports per-request speculation statistics plus the
// simulated per-token latency on the paper's A10 deployment.
//
// Usage examples:
//
//	specinfer                          # tree speculation, Alpaca, 4 requests
//	specinfer -mode incremental
//	specinfer -mode tree -width 5 -stochastic -batch 8 -requests 16
//	specinfer -dataset WebQA -ssms 3   # merge-based speculation, 3 SSMs
//	specinfer -substrate transformer   # small transformer LLM/SSM pair
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"specinfer/internal/bench"
	"specinfer/internal/cluster"
	"specinfer/internal/core"
	"specinfer/internal/gpu"
	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/tokenizer"
)

func main() {
	var (
		dataset    = flag.String("dataset", "Alpaca", "prompt dataset: Alpaca|CP|WebQA|CIP|PIQA")
		mode       = flag.String("mode", "tree", "serving mode: incremental|sequence|tree")
		width      = flag.Int("width", 3, "token tree width (tree mode)")
		depth      = flag.Int("depth", 8, "speculation depth")
		requests   = flag.Int("requests", 4, "number of requests")
		batch      = flag.Int("batch", 4, "continuous batching slots")
		gen        = flag.Int("gen", 64, "tokens to generate per request")
		stochastic = flag.Bool("stochastic", false, "stochastic decoding (default greedy)")
		verif      = flag.String("verifier", "", "stochastic verification algorithm: mss|naive|traversal (default mss; ignored under greedy decoding)")
		temp       = flag.Float64("temperature", 1, "sampling temperature (stochastic)")
		topK       = flag.Int("topk", 0, "top-k sampling filter, 0 disables")
		topP       = flag.Float64("topp", 0, "nucleus sampling mass, 0 disables")
		adaptive   = flag.Bool("adaptive", false, "dynamic best-first tree expansion")
		policyOn   = flag.Bool("policy", false, "per-request, per-iteration speculation policy (tree mode; picks tree shape and SSM count from measured accept rate, queue depth and batch occupancy)")
		ssms       = flag.Int("ssms", 1, "SSM pool size (merge-based speculation if >1)")
		substrate  = flag.String("substrate", "ngram", "model substrate: ngram (calibrated n-gram pair) | transformer (small transformer pair)")
		seed       = flag.Uint64("seed", 1, "engine seed")
		showText   = flag.Bool("text", true, "print generations as pseudo-text")
		workers    = flag.Int("workers", 0, "request-step worker pool size, 0 = GOMAXPROCS")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the serving run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()

	sv, err := bench.NewServing(bench.ServeFlags{
		Dataset: *dataset, Substrate: *substrate, Mode: *mode,
		Width: *width, Depth: *depth, SSMs: *ssms,
		Stochastic: *stochastic, Temperature: *temp, TopK: *topK, TopP: *topP,
		Verifier: *verif, Adaptive: *adaptive, Policy: *policyOn,
		Batch: *batch, Workers: *workers, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ds, cfg := sv.Dataset, sv.Config
	tok := tokenizer.New(ds.Vocab, ds.Seed)
	trace := sv.Trace(*requests, *gen)

	eng, err := core.NewEngine(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			_ = f.Close() // os.Exit skips the deferred close
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	results, iters := eng.Run(trace)
	elapsed := time.Since(start)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			_ = f.Close()
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	fmt.Printf("SpecInfer-Go — %s on %s, %d requests, batch %d, %s decoding\n",
		cfg.Mode, ds.Name, *requests, *batch, cfg.Sample.Mode)
	fmt.Printf("LLM: %s   SSM pool: %d\n\n", cfg.LLM.Name(), len(cfg.SSMs))

	var totalSteps, totalTokens int
	for i, r := range results {
		totalSteps += r.Steps
		totalTokens += len(r.Output)
		fmt.Printf("request %d: %d tokens in %d LLM steps (%.2f tokens/step)\n",
			r.ID, len(r.Output), r.Steps, r.AvgCommitted())
		if *showText {
			fmt.Printf("  prompt: %s\n", tok.Decode(trace[i].Prompt))
			out := r.Output
			if len(out) > 24 {
				out = out[:24]
			}
			fmt.Printf("  output: %s ...\n", tok.Decode(out))
		}
	}
	fmt.Printf("\ntotal: %d tokens in %d steps (%.2f tokens/step)\n",
		totalTokens, totalSteps, float64(totalTokens)/float64(totalSteps))
	if *policyOn {
		var lat, thr int
		for _, it := range iters {
			switch it.PolicyMode {
			case policy.Latency.String():
				lat++
			case policy.Throughput.String():
				thr++
			}
		}
		fmt.Printf("policy: %d latency-mode / %d throughput-mode iterations\n", lat, thr)
	}
	fmt.Printf("wall clock: %d tokens in %.3fs — %.0f tokens/sec (workers=%d)\n",
		totalTokens, elapsed.Seconds(), float64(totalTokens)/elapsed.Seconds(), cfg.Workers)

	// Price the run on the paper's LLaMA-7B single-A10 deployment.
	rep := cluster.Simulate(cluster.Deployment{
		LLM: model.LLaMA7B, SSM: model.LLaMA68M, Plan: gpu.SingleGPU(),
	}, iters)
	fmt.Printf("simulated on LLaMA-7B / 1xA10: %.1f ms per token, %.2f J per token (%s)\n",
		rep.PerTokenLatency*1e3, rep.EnergyPerToken, rep)
}
