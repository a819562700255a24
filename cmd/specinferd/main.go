// Command specinferd is the live serving daemon: the same synthetic
// models and serving strategies as the specinfer CLI, exposed over an
// HTTP JSON API with iteration-level continuous batching, per-request
// cancellation, bounded-queue backpressure, and graceful drain.
//
//	specinferd -addr :8080                     # tree speculation, Alpaca
//	specinferd -mode incremental -batch 8
//	specinferd -queue 128 -drain-timeout 30s
//	specinferd -replicas 4 -prefix-cache-mb 64 # sharded fleet with
//	                                           # prefix-affinity routing
//
// Endpoints:
//
//	POST /v1/generate   {"prompt":[1,2,3],"max_new_tokens":32,"stream":true}
//	GET  /healthz       200 while accepting, 503 while draining
//	GET  /metricz       live serving stats (queue, slots, latency, KV bytes)
//	/debug/pprof/...    live profiling
//
// SIGINT/SIGTERM starts a graceful drain: in-flight requests finish
// (bounded by -drain-timeout), queued ones are rejected, and the daemon
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"specinfer/internal/bench"
	"specinfer/internal/core"
	"specinfer/internal/router"
	"specinfer/internal/server"
	"specinfer/internal/tokenizer"
)

func main() {
	var (
		dataset    = flag.String("dataset", "Alpaca", "prompt dataset: Alpaca|CP|WebQA|CIP|PIQA")
		mode       = flag.String("mode", "tree", "serving mode: incremental|sequence|tree")
		width      = flag.Int("width", 3, "token tree width (tree mode)")
		depth      = flag.Int("depth", 8, "speculation depth")
		batch      = flag.Int("batch", 4, "continuous batching slots")
		stochastic = flag.Bool("stochastic", false, "stochastic decoding (default greedy)")
		verif      = flag.String("verifier", "", "stochastic verification algorithm: mss|naive|traversal (default mss; ignored under greedy decoding)")
		temp       = flag.Float64("temperature", 1, "sampling temperature (stochastic)")
		topK       = flag.Int("topk", 0, "top-k sampling filter, 0 disables")
		topP       = flag.Float64("topp", 0, "nucleus sampling mass, 0 disables")
		adaptive   = flag.Bool("adaptive", false, "dynamic best-first tree expansion")
		policyOn   = flag.Bool("policy", false, "per-request, per-iteration speculation policy (tree mode; picks tree shape and SSM count from measured accept rate, queue depth and batch occupancy, and decodes incrementally while speculation is measured not to pay; surfaced in /metricz)")
		ssms       = flag.Int("ssms", 1, "SSM pool size (merge-based speculation if >1)")
		substrate  = flag.String("substrate", "ngram", "model substrate: ngram (calibrated n-gram pair) | transformer (small transformer pair)")
		seed       = flag.Uint64("seed", 1, "engine seed")
		workers    = flag.Int("workers", 0, "request-step worker pool size, 0 = GOMAXPROCS")
		addr       = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		queue      = flag.Int("queue", 64, "admission queue depth (backpressure bound)")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "bound on graceful drain; 0 waits for all in-flight requests")
		maxNew     = flag.Int("max-new-tokens", 256, "per-request generation budget cap accepted over HTTP")
		prefixMB   = flag.Int64("prefix-cache-mb", 0, "cross-request prefix KV cache budget in MiB, 0 disables (effective on paged-KV models; n-gram models fall back to cold prefill)")
		replicas   = flag.Int("replicas", 1, "engine replicas behind prefix-affinity routing; 1 serves a single engine with no router")
		policy     = flag.String("route-policy", "prefix-affinity", "fleet placement policy: prefix-affinity|round-robin (with -replicas > 1)")
	)
	flag.Parse()

	sv, err := bench.NewServing(bench.ServeFlags{
		Dataset: *dataset, Substrate: *substrate, Mode: *mode,
		Width: *width, Depth: *depth, SSMs: *ssms,
		Stochastic: *stochastic, Temperature: *temp, TopK: *topK, TopP: *topP,
		Verifier: *verif, Adaptive: *adaptive, Policy: *policyOn,
		Batch: *batch, Workers: *workers, Seed: *seed,
		PrefixCacheMB: *prefixMB,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ds, cfg := sv.Dataset, sv.Config
	cfg.QueueDepth = *queue
	cfg.DrainTimeout = *drain
	tok := tokenizer.New(ds.Vocab, ds.Seed)

	if *replicas < 1 {
		fmt.Fprintf(os.Stderr, "-replicas must be at least 1, got %d\n", *replicas)
		os.Exit(2)
	}
	srvCfg := server.Config{Tokenizer: tok, MaxNewTokens: *maxNew}
	if *replicas == 1 {
		eng, err := core.NewEngine(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srvCfg.Engine = eng
	} else {
		// Each replica is an independent engine over the same (read-only)
		// models: its own scheduler, admission queue, and prefix KV
		// cache. The router keeps same-prefix traffic on the replica
		// whose cache is warm for it.
		pol, err := router.ParsePolicy(*policy)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		engs := make([]*core.Engine, *replicas)
		for i := range engs {
			eng, err := core.NewEngine(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			engs[i] = eng
		}
		rt, err := router.New(router.Config{Replicas: engs, Policy: pol})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srvCfg.Router = rt
	}
	srv, err := server.New(srvCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fleetNote := ""
	if *replicas > 1 {
		fleetNote = fmt.Sprintf(", %d replicas (%s routing)", *replicas, *policy)
	}
	fmt.Printf("specinferd — %s on %s, batch %d, queue %d, %s decoding%s\n",
		cfg.Mode, ds.Name, *batch, *queue, cfg.Sample.Mode, fleetNote)
	fmt.Printf("LLM: %s   SSM pool: %d   listening on %s\n",
		cfg.LLM.Name(), len(cfg.SSMs), *addr)

	if err := srv.Run(ctx, *addr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("specinferd: drained cleanly")
}
