package specinfer

// One Go benchmark per table and figure of the paper's evaluation (§6).
// Each benchmark drives the corresponding internal/bench experiment on a
// moderate workload and reports the headline quantity of that experiment
// as custom benchmark metrics, so `go test -bench=. -benchmem` regenerates
// the whole evaluation. cmd/benchtables prints the full tables.

import (
	"fmt"
	"strings"
	"testing"

	"specinfer/internal/bench"
	"specinfer/internal/sampling"
)

func BenchmarkTable1TopKAcceptance(b *testing.B) {
	var rows []bench.Table1Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table1(bench.Table1Config{Prompts: 24, Steps: 64})
	}
	for _, r := range rows {
		for k := 0; k < 5; k++ {
			b.ReportMetric(r.Rate[k]*100, fmt.Sprintf("%s/%s/top%d-%%", r.Mode, r.Dataset, k+1))
		}
	}
}

func BenchmarkTable2VerifiedTokens(b *testing.B) {
	var rows []bench.Table2Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table2(bench.Table2Config{Requests: 8, GenLen: 96})
	}
	for _, r := range rows {
		for k := 0; k < 5; k++ {
			b.ReportMetric(r.Avg[k], fmt.Sprintf("%s/%s/w%d-tok|step", r.Mode, r.Dataset, k+1))
		}
	}
}

func BenchmarkTable3MSSvsNaive(b *testing.B) {
	var rows []bench.Table3Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table3(bench.Table2Config{Requests: 8, GenLen: 96})
	}
	for _, r := range rows {
		b.ReportMetric(r.Naive, r.Dataset+"/naive-tok|step")
		b.ReportMetric(r.MSS, r.Dataset+"/mss-tok|step")
		b.ReportMetric(r.Improvement, r.Dataset+"/improvement-x")
	}
}

func BenchmarkFigure7Distributed(b *testing.B) {
	var pts []bench.Figure7Point
	for i := 0; i < b.N; i++ {
		pts = bench.Figure7(bench.LatencyConfig{GenLen: 64})
	}
	for _, p := range pts {
		b.ReportMetric(p.PerTokenMS,
			metricName(fmt.Sprintf("%s/%s/BS%d-ms|tok", shortDep(p.Deployment), p.System, p.BatchSize)))
	}
}

func BenchmarkFigure8Offloading(b *testing.B) {
	var pts []bench.Figure8Point
	for i := 0; i < b.N; i++ {
		pts = bench.Figure8(bench.LatencyConfig{GenLen: 64})
	}
	for _, p := range pts {
		b.ReportMetric(p.PerTokenS, metricName(fmt.Sprintf("%s/%s/BS%d-s|tok", p.Model, p.System, p.BatchSize)))
	}
}

func BenchmarkFigure9WidthCDF(b *testing.B) {
	var series []bench.Figure9Series
	for i := 0; i < b.N; i++ {
		series = bench.Figure9(bench.Figure9Config{Requests: 16, GenLen: 96})
	}
	for _, s := range series {
		mode := "greedy"
		if s.Mode == sampling.Stochastic {
			mode = "stochastic"
		}
		b.ReportMetric(s.Mean, fmt.Sprintf("%s/w%d-mean-tok|step", mode, s.Width))
	}
}

func BenchmarkFigure10WidthLatency(b *testing.B) {
	var pts []bench.Figure10Point
	for i := 0; i < b.N; i++ {
		pts = bench.Figure10(bench.LatencyConfig{GenLen: 64})
	}
	for _, p := range pts {
		b.ReportMetric(p.PerTokenMS, fmt.Sprintf("w%d/BS%d-ms|tok", p.Width, p.BatchSize))
	}
}

func BenchmarkFigure11TreeVsSeq(b *testing.B) {
	var pts []bench.Figure11Point
	for i := 0; i < b.N; i++ {
		pts = bench.Figure11(bench.LatencyConfig{GenLen: 64})
	}
	for _, p := range pts {
		b.ReportMetric(p.TreeMS, fmt.Sprintf("BS%d-tree-ms|tok", p.BatchSize))
		b.ReportMetric(p.SequenceMS, fmt.Sprintf("BS%d-seq-ms|tok", p.BatchSize))
		b.ReportMetric(p.Speedup, fmt.Sprintf("BS%d-speedup-x", p.BatchSize))
	}
}

func shortDep(label string) string {
	for i, c := range label {
		if c == ' ' {
			return label[:i]
		}
	}
	return label
}

// metricName sanitizes a benchmark metric unit: testing.B.ReportMetric
// rejects whitespace, and the system labels of Figure 7 contain spaces
// and parentheses.
func metricName(s string) string {
	r := strings.NewReplacer(" ", "-", "(", "", ")", "")
	return r.Replace(s)
}

// BenchmarkForward runs the forward-pass microbenchmarks: batched vs
// pre-batching reference for prefill, incremental decode, and tree
// verification at widths 1–5, plus the long-context sweep (paged arena
// vs reference at committed contexts 128–1024).
func BenchmarkForward(b *testing.B) {
	for _, pb := range bench.PerfSuite() {
		if strings.HasPrefix(pb.Name, "forward/") {
			b.Run(strings.TrimPrefix(pb.Name, "forward/"), pb.Run)
		}
	}
}

// BenchmarkEngineIteration runs the continuous-batching engine loop at
// batch sizes 1–16 on the transformer substrate (parallel worker pool),
// plus the serial pre-batching baseline at batch 8 and the PR 5
// shared-prefix TTFT scenario (prefix cache warm vs cold).
func BenchmarkEngineIteration(b *testing.B) {
	for _, pb := range bench.PerfSuite() {
		if strings.HasPrefix(pb.Name, "engine/") {
			b.Run(strings.TrimPrefix(pb.Name, "engine/"), pb.Run)
		}
	}
}

// BenchmarkVerifier runs the PR 9 accept-length scenarios: traversal vs
// MSS verification on identical speculation instances per Table-1
// dataset. The accept-len metric is deterministic (fixed instance stream
// and paired seeds); ns/op is the verification cost.
func BenchmarkVerifier(b *testing.B) {
	for _, pb := range bench.PerfSuite() {
		if strings.HasPrefix(pb.Name, "verifier/") {
			b.Run(strings.TrimPrefix(pb.Name, "verifier/"), pb.Run)
		}
	}
}

// BenchmarkVerifyCost is the verify-cost premise curve: one LLM
// tree-verification pass over K = 1, 3, 7, 15, 31, 63 speculated rows
// at a 128-token context, on perf-LLM and perf-LLM-bw, reporting
// t(K)/t(1). Run it with -cpu 1,2 to see how a second core moves the
// knee:
//
//	go test -run '^$' -bench BenchmarkVerifyCost -cpu 1,2 .
//
// The perf-LLM/ctx=272 cases are the attention-heavy point, prefix-fleet's
// 21-node trees over a 272-token context.
func BenchmarkVerifyCost(b *testing.B) {
	t1 := map[string]float64{}
	for _, m := range bench.VerifyCostModels {
		for _, k := range bench.VerifyCostRows {
			b.Run(fmt.Sprintf("%s/K=%d", m, k), bench.VerifyCost(m, bench.VerifyCostCtx, k, t1))
		}
	}
	for _, k := range bench.VerifyCostLongRows {
		b.Run(fmt.Sprintf("perf-LLM/ctx=%d/K=%d", bench.VerifyCostLongCtx, k),
			bench.VerifyCost("perf-LLM", bench.VerifyCostLongCtx, k, t1))
	}
}
