# The same verification gate CI runs (.github/workflows/ci.yml), in one
# local command: make check.

GO ?= go

.PHONY: check fmt vet build test race lint archcheck benchsmoke tablescheck serve servesmoke e2e

check: fmt vet build race lint archcheck benchsmoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The packed projection kernel and the vector exp/softmax/SiLU/attention/
# pow kernels are amd64 assembly behind build tags. Vet the portable
# fallback as an arm64 build sees it, and run the kernels' packages, and
# sampling, whose temperature step runs on the pow kernel, under
# GOAMD64=v3, where the kernels are compiled out and the scalar loops
# alone must keep every golden test. Under GODEBUG=cpu.fma=off math.Exp
# leaves its FMA path, the exp kernel's start-up probe must switch it and
# the pow kernel off (TestExpKernelOffWithoutFMA,
# TestPowKernelOffWithoutFMA), and the golden tests must hold on the
# scalar exponentials and math.Pow. The KV arena, whose key pages the
# kernels read dim-major, runs under GOAMD64=v3 too. Last,
# FuzzTreeAttention fuzzes the blocked attention items against the
# per-row ones for 20 seconds, FuzzDecodeAttention the one-row item,
# every head side by side, against them, FuzzExpKernels the 512-bit and
# AVX2 exponentials against the scalar loops (it skips on CPUs without
# AVX-512F), and FuzzTreeMergePrune tree merge and prune against their
# definitions. First, internal/tensor must import neither sync nor
# runtime: its kernels stay serial (DESIGN.md §28).
archcheck:
	GO=$(GO) bash scripts/serialkernels.sh
	GOARCH=arm64 $(GO) vet ./internal/tensor/... ./internal/transformer/... ./internal/sampling/... ./internal/kvcache/...
	GOAMD64=v3 $(GO) test ./internal/tensor/... ./internal/transformer/... ./internal/sampling/... ./internal/kvcache/...
	GODEBUG=cpu.fma=off $(GO) test ./internal/tensor/... ./internal/transformer/... ./internal/sampling/...
	$(GO) test -run '^$$' -fuzz '^FuzzTreeAttention$$' -fuzztime 20s ./internal/transformer/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAttention$$' -fuzztime 20s ./internal/transformer/
	$(GO) test -run '^$$' -fuzz '^FuzzExpKernels$$' -fuzztime 20s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz '^FuzzTreeMergePrune$$' -fuzztime 20s ./internal/tree/

# Extra flags reach the linter via LINT_FLAGS, e.g.
#   make lint LINT_FLAGS='-json'
#   make lint LINT_FLAGS='-only mutexguard,lockbalance'
LINT_FLAGS ?=

lint:
	$(GO) run ./cmd/specinferlint $(LINT_FLAGS) ./...

# One-iteration pass over every root perf driver (forward passes, engine
# iterations, verifier accept length, verify-cost curve, one speculation
# step with its allocations), the panel and SoftmaxBlock kernel
# benchmarks on each vector tier, and the one-row pass kernels' (DotKeys,
# SoftmaxHeads, AccumHeads): catches bit-rot in the benchmark drivers
# without paying for a full measurement run.
# Measure with the same drivers at a real benchtime, e.g.
#   go test -run '^$' -bench BenchmarkForward -benchtime 1s .
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkForward|BenchmarkEngineIteration|BenchmarkVerifier|BenchmarkVerifyCost|BenchmarkSpeculationStep' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkMatMulTPacked|BenchmarkSoftmaxBlock|BenchmarkDotKeys|BenchmarkSoftmaxHeads|BenchmarkAccumHeads' -benchtime 1x ./internal/tensor/

# The offline reproductions (Tables 1-3, Figures 7-11, the ablations) are
# deterministic: diff a fresh `benchtables -quick` (~35 s on 2 vCPUs)
# against the committed output, so no change moves a reproduced figure
# silently. The golden file holds amd64 bits with the default GOAMD64:
# FMA fusion on arm64 or under GOAMD64=v3 changes low digits, as with
# TestStochasticOutputsGolden. After a deliberate change, regenerate it:
#   go run ./cmd/benchtables -quick > cmd/benchtables/testdata/quick.golden
tablescheck:
	$(GO) run ./cmd/benchtables -quick | diff -u cmd/benchtables/testdata/quick.golden -

# End-to-end serving benchmark gate: the benchmark's own unit tests under
# the race detector, then a short chat-tree run, which exits non-zero
# unless every tree-speculated output equals incremental decoding token
# for token, a short burst-stoch run, which serves through the
# speculation policy's zero-budget floor, and a short prefix-fleet run,
# which routes shared-prefix traffic over two replicas that adopt cached
# prefixes, every output checked against incremental decoding.
e2e:
	cd e2ebench && $(GO) test -race ./...
	bash e2ebench/run.sh --workload chat-tree --seed 1 --seconds 2 --trace 0
	bash e2ebench/run.sh --workload burst-stoch --seed 1 --seconds 2 --trace 0
	bash e2ebench/run.sh --workload prefix-fleet --seed 1 --seconds 2 --trace 0

# Run the serving daemon locally (ctrl-C drains gracefully).
serve:
	$(GO) run ./cmd/specinferd -addr 127.0.0.1:8080

# End-to-end daemon smoke: start specinferd, wait for /healthz, run one
# generation, scrape /metricz, then SIGTERM and require a clean exit.
servesmoke:
	./scripts/servesmoke.sh
