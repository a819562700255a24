// Command e2ebench is the end-to-end serving benchmark: it builds the
// serving stack in process, drives one workload from one load generator,
// checks every output, and prints the metrics as one JSON line.
//
//	e2ebench --workload chat-tree --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a traced run
// and prints the per-layer metrics. See README.md for the workloads and
// the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"specinfer/internal/tensor"
	"specinfer/internal/transformer"
)

// setupReps is how many times an untraced run sets the stack up; setup_s
// is the median.
const setupReps = 3

// rssEvery is how often a measured phase samples resident memory.
const rssEvery = 100 * time.Millisecond

// traceDir receives the span files of traced runs.
const traceDir = ".bench_build/e2ebench-traces"

// endToEndUnits and perLayerUnits list every metric with its unit: the
// set an untraced run prints and the set a traced run prints.
var (
	endToEndUnits = []struct{ name, unit string }{
		{"setup_s", "s"},
		{"ttft_p50_ms", "ms"},
		{"tpot_p50_ms", "ms"},
		{"latency_p50_ms", "ms"},
		{"tokens_per_s", "1/s"},
		{"slo_ok_share", "share"},
		{"cpu_s_per_ktoken", "s"},
		{"rss_mb", "MB"},
	}
	perLayerUnits = []struct{ name, unit string }{
		{"server.overhead_ms_p50", "ms"}, {"server.chunks_per_req", "count"},
		{"router.submit_us_p50", "us"}, {"router.replica_share_max", "share"},
		{"router.rerouted", "count"}, {"router.shed", "count"},
		{"core.queue_wait_p50_ms", "ms"}, {"core.queue_wait_p90_ms", "ms"},
		{"core.reqs_per_iter", "count"}, {"core.iters_per_s", "1/s"},
		{"core.unattributed_cpu_share", "share"},
		{"transformer.prefill_us_per_tok", "us"}, {"transformer.prefill_shared_us_per_tok", "us"},
		{"transformer.decode_us", "us"}, {"transformer.verify_us", "us"},
		{"transformer.verify_nodes", "count"}, {"transformer.accept_us", "us"},
		{"transformer.llm_cpu_share", "share"},
		{"speculator.draft_us_per_iter", "us"}, {"speculator.draft_calls_per_iter", "count"},
		{"speculator.draft_nodes_per_iter", "count"}, {"speculator.ssm_cpu_share", "share"},
		{"verifier.accept_len_mean", "count"}, {"verifier.accept_share", "share"},
		{"kvcache.prefix_hit_share", "share"}, {"kvcache.tokens_shared_share", "share"},
		{"kvcache.evictions", "count"}, {"kvcache.prefix_mb", "MB"},
		{"policy.throughput_iter_share", "share"}, {"policy.tracked_requests_end", "count"},
		{"go.alloc_kb_per_token", "KB"}, {"go.gc_cycles_per_ktoken", "count"},
		{"tensor.calib_matmul_us", "us"},
		{"loadgen.lag_p90_ms", "ms"},
		{"trace.overhead_share", "share"}, {"trace.cpu_overhead_share", "share"},
	}
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance describes the run and its host; it is printed on the line
// before the result.
type provenance struct {
	Workload        string         `json:"workload"`
	Seed            uint64         `json:"seed"`
	Seconds         float64        `json:"seconds"`
	Trace           int            `json:"trace"`
	NumCPU          int            `json:"nproc"`
	GOMAXPROCS      int            `json:"gomaxprocs"`
	GoVersion       string         `json:"go_version"`
	CalibBeforeUs   float64        `json:"calib_matmul_us_before"`
	CalibAfterUs    float64        `json:"calib_matmul_us_after"`
	SetupSeconds    []float64      `json:"setup_s_each,omitempty"`
	PercentileCount map[string]int `json:"percentile_samples"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := fs.Float64("seconds", 15, "length of a measured phase in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	if err := checkCores(w); err != nil {
		fmt.Fprintln(stderr, "e2ebench: refusing to run:", err)
		return 2
	}
	prov := provenance{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CalibBeforeUs: calibMatMulUs(), PercentileCount: map[string]int{},
	}
	var res result
	var err error
	if *traced == 0 {
		res, err = runEndToEnd(w, *seed, *seconds, &prov)
	} else {
		res, err = runTraced(w, *seed, *seconds, &prov)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	prov.CalibAfterUs = calibMatMulUs()
	if *traced == 1 {
		res.Metrics["tensor.calib_matmul_us"] = metricValue{(prov.CalibBeforeUs + prov.CalibAfterUs) / 2, "us"}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "e2ebench: metric %s is not finite\n", k)
			return 1
		}
	}
	printHuman(stderr, prov, res)
	pl, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	rl, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", pl, rl)
	if !res.Correct {
		fmt.Fprintf(stderr, "e2ebench: %d of %d requests failed their checks\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runEndToEnd sets the stack up setupReps times, serves the workload on
// the last one with tracing off, checks the outputs, and reports the
// end-to-end metrics.
func runEndToEnd(w *workloadSpec, seed uint64, seconds float64, prov *provenance) (result, error) {
	warm, reqs := w.plan(seed, seconds)
	var st *stack
	var llm *transformer.Model
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return result{}, err
			}
		}
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		l, s := buildModels()
		var err error
		if st, err = startStack(w, l, s); err != nil {
			return result{}, err
		}
		prov.SetupSeconds = append(prov.SetupSeconds, time.Since(t0).Seconds())
		llm = l
	}
	if err := w.warmUp(st, warm); err != nil {
		_ = st.stop()
		return result{}, err
	}
	p := w.measure(st, reqs, seconds, minSamples)
	if err := st.stop(); err != nil {
		return result{}, err
	}
	if err := w.check(llm, reqs, p.samples); err != nil {
		return result{}, err
	}
	m, err := endToEnd(w, &p, median(prov.SetupSeconds), prov.PercentileCount)
	if err != nil {
		return result{}, err
	}
	return newResult(m, endToEndUnits, p.samples), nil
}

// runTraced serves the workload twice on fresh stacks over the same
// models: a half-length untraced phase, then a full-length phase with
// the models wrapped in the timing decorator. It reports the per-layer
// metrics and writes the spans to traceDir.
func runTraced(w *workloadSpec, seed uint64, seconds float64, prov *provenance) (result, error) {
	warm, reqs := w.plan(seed, seconds)
	llm, ssm := buildModels()
	serve := func(st *stack, horizon float64, minDone int) (phase, error) {
		if err := w.warmUp(st, warm); err != nil {
			_ = st.stop()
			return phase{}, err
		}
		p := w.measure(st, reqs, horizon, minDone)
		return p, st.stop()
	}
	st, err := startStack(w, llm, ssm)
	if err != nil {
		return result{}, err
	}
	base, err := serve(st, seconds/2, 2*minBeyond)
	if err != nil {
		return result{}, err
	}
	rec := newRecorder()
	if st, err = startStack(w, rec.model(llm, "llm"), rec.model(ssm, "ssm")); err != nil {
		return result{}, err
	}
	tr, err := serve(st, seconds, minSamples)
	if err != nil {
		return result{}, err
	}
	if err := w.check(llm, reqs, base.samples, tr.samples); err != nil {
		return result{}, err
	}
	m, err := layerMetrics(w, &base, &tr, rec, st.trackedRequests(), prov.PercentileCount)
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.csv", w.name, seed))
	if err := rec.write(path, tr.samples); err != nil {
		return result{}, err
	}
	all := append(append([]sample(nil), base.samples...), tr.samples...)
	return newResult(m, perLayerUnits, all), nil
}

func newResult(m map[string]float64, units []struct{ name, unit string }, samples []sample) result {
	attempted, failed := countFailed(samples)
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, u := range units {
		r.Metrics[u.name] = metricValue{m[u.name], u.unit}
	}
	return r
}

// endToEnd computes the user-visible metrics of an untraced phase.
func endToEnd(w *workloadSpec, p *phase, setup float64, counts map[string]int) (map[string]float64, error) {
	l := collect(p.samples)
	m := map[string]float64{
		"setup_s":          setup,
		"tokens_per_s":     p.tokensPerSec(),
		"slo_ok_share":     sloShare(p.samples, w.limits),
		"cpu_s_per_ktoken": p.cpuPerKToken(),
		"rss_mb":           median(p.rss),
	}
	for _, q := range []pctSpec{
		{"ttft_p50_ms", l.ttft, 0.5},
		{"tpot_p50_ms", l.tpot, 0.5},
		{"latency_p50_ms", l.latency, 0.5},
	} {
		if err := setPct(m, counts, q.name, q.d, q.q); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// pctSpec names one reported percentile of a distribution.
type pctSpec struct {
	name string
	d    []float64
	q    float64
}

// setPct stores a percentile and its sample count, or fails when the
// samples cannot support it.
func setPct(m map[string]float64, counts map[string]int, name string, d []float64, q float64) error {
	v, n, ok := percentile(d, q)
	if !ok {
		return fmt.Errorf("%s: %d samples leave fewer than %d beyond the percentile", name, n, minBeyond)
	}
	m[name], counts[name] = v, n
	return nil
}

// layerMetrics computes the per-layer metrics of a traced run: base is
// the untraced phase, tr the traced one.
func layerMetrics(w *workloadSpec, base, tr *phase, rec *recorder, trackedEnd int, counts map[string]int) (map[string]float64, error) {
	tot := rec.totals(tr.t0, tr.end)
	llm, ssm := tot["llm"], tot["ssm"]
	l := collect(tr.samples)
	c0, c1 := tr.c0, tr.c1
	cpu := tr.cpu.Seconds()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	meanUs := func(k kindTotals) float64 { return ratio(us(k.dur), float64(k.calls)) }
	verifs := float64(llm[kDecodeTree].calls)
	prompts := float64(llm[kPrefill].n + llm[kPrefillShared].n + ssm[kPrefill].n + ssm[kPrefillShared].n)
	iters := float64(c1.iterations - c0.iterations)
	ok := 0
	chunks := 0
	for _, s := range tr.samples {
		if !s.failed {
			ok++
			chunks += s.chunks
		}
	}

	m := map[string]float64{
		"core.reqs_per_iter":          ratio(float64(llm[kDecode].calls+llm[kDecodeTree].calls), iters),
		"core.iters_per_s":            ratio(iters, tr.seconds()),
		"core.unattributed_cpu_share": 1 - ratio((llm.busy()+ssm.busy()).Seconds(), cpu),

		"transformer.prefill_us_per_tok":        ratio(us(llm[kPrefill].dur), float64(llm[kPrefill].n)),
		"transformer.prefill_shared_us_per_tok": ratio(us(llm[kPrefillShared].dur), float64(llm[kPrefillShared].n)),
		"transformer.decode_us":                 meanUs(llm[kDecode]),
		"transformer.verify_us":                 meanUs(llm[kDecodeTree]),
		"transformer.verify_nodes":              ratio(float64(llm[kDecodeTree].n), verifs),
		"transformer.accept_us":                 meanUs(llm[kAccept]),
		"transformer.llm_cpu_share":             ratio(llm.busy().Seconds(), cpu),

		"speculator.draft_us_per_iter":    ratio(us(ssm[kDecodeTree].dur), verifs),
		"speculator.draft_calls_per_iter": ratio(float64(ssm[kDecodeTree].calls), verifs),
		"speculator.draft_nodes_per_iter": ratio(float64(ssm[kDecodeTree].n), verifs),
		"speculator.ssm_cpu_share":        ratio(ssm.busy().Seconds(), cpu),

		"verifier.accept_len_mean": ratio(float64(c1.accepted-c0.accepted), float64(c1.verifications-c0.verifications)),
		"verifier.accept_share":    ratio(float64(c1.accepted-c0.accepted), float64(llm[kDecodeTree].sub)),

		"kvcache.prefix_hit_share":    ratio(float64(c1.hits-c0.hits), float64(c1.hits-c0.hits+c1.misses-c0.misses)),
		"kvcache.tokens_shared_share": ratio(float64(c1.tokensShared-c0.tokensShared), prompts),
		"kvcache.evictions":           float64(c1.evictions - c0.evictions),
		"kvcache.prefix_mb":           float64(c1.prefixBytes) / (1 << 20),

		"policy.throughput_iter_share": ratio(float64(c1.polThroughput-c0.polThroughput),
			float64(c1.polThroughput-c0.polThroughput+c1.polLatency-c0.polLatency)),
		"policy.tracked_requests_end": float64(trackedEnd),

		"go.alloc_kb_per_token":   ratio(float64(base.m1.TotalAlloc-base.m0.TotalAlloc)/1024, float64(base.tokens())),
		"go.gc_cycles_per_ktoken": ratio(float64(base.m1.NumGC-base.m0.NumGC)*1000, float64(base.tokens())),

		"trace.overhead_share":     1 - ratio(tr.tokensPerSec(), base.tokensPerSec()),
		"trace.cpu_overhead_share": ratio(tr.cpuPerKToken(), base.cpuPerKToken()) - 1,
	}
	pcts := []pctSpec{
		{"core.queue_wait_p50_ms", l.queueWait, 0.5}, {"core.queue_wait_p90_ms", l.queueWait, 0.9},
		{"loadgen.lag_p90_ms", l.lag, 0.9},
	}
	switch w.front {
	case viaHTTP:
		pcts = append(pcts, pctSpec{"server.overhead_ms_p50", l.overhead, 0.5})
		m["server.chunks_per_req"] = ratio(float64(chunks), float64(ok))
	case viaRouter:
		pcts = append(pcts, pctSpec{"router.submit_us_p50", l.submit, 0.5})
		var total, top uint64
		for i := range c1.submitted {
			d := c1.submitted[i] - c0.submitted[i]
			total += d
			if d > top {
				top = d
			}
		}
		m["router.replica_share_max"] = ratio(float64(top), float64(total))
		m["router.rerouted"] = float64(c1.rerouted - c0.rerouted)
		m["router.shed"] = float64(c1.shed - c0.shed)
	case viaEngine:
		// No server or router layer: their metrics read 0.
	}
	for _, q := range pcts {
		if err := setPct(m, counts, q.name, q.d, q.q); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// calibMatMulUs times a fixed-shape single-threaded tensor.MatMulT (the
// perf-LLM LM head over three rows) and returns the median µs per call:
// a host-speed reading taken before and after every run.
func calibMatMulUs() float64 {
	rng := tensor.NewRNG(99)
	w, x, out := tensor.NewMatrix(256, 64), tensor.NewMatrix(3, 64), tensor.NewMatrix(3, 256)
	rng.FillNormal(w.Data, 1)
	rng.FillNormal(x.Data, 1)
	const calls, reps = 200, 15
	var per []float64
	for r := 0; r < reps+2; r++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			tensor.MatMulT(w, x, out)
		}
		if r >= 2 {
			per = append(per, float64(time.Since(t0))/float64(time.Microsecond)/calls)
		}
	}
	return median(per)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rssMB is the process's resident set (VmRSS), in MiB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// watchRSS samples rssMB every rssEvery until the returned func is
// called, which returns the samples.
func watchRSS() func() []float64 {
	quit := make(chan struct{})
	res := make(chan []float64)
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		var xs []float64
		for {
			xs = append(xs, rssMB())
			select {
			case <-t.C:
			case <-quit:
				res <- xs
				return
			}
		}
	}()
	return func() []float64 {
		close(quit)
		return <-res
	}
}

func printHuman(w io.Writer, prov provenance, res result) {
	fmt.Fprintf(w, "e2ebench %s seed=%d trace=%d nproc=%d GOMAXPROCS=%d %s calib=%.3f/%.3fus\n",
		prov.Workload, prov.Seed, prov.Trace, prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion,
		prov.CalibBeforeUs, prov.CalibAfterUs)
	fmt.Fprintf(w, "  requests attempted=%d failed=%d\n", res.Attempted, res.Failed)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := ""
		if c, ok := prov.PercentileCount[k]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %s%s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit, n)
	}
}
