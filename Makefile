# The same verification gate CI runs (.github/workflows/ci.yml), in one
# local command: make check.

GO ?= go

.PHONY: check fmt vet build test race lint archcheck bench benchsmoke serve servesmoke e2e

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

# The packed projection kernel and the vector exp/softmax/SiLU/attention
# kernels are amd64 assembly behind build tags. Vet the portable fallback
# as an arm64 build sees it, and run the kernels' packages under
# GOAMD64=v3, where the kernels are compiled out and the scalar loops
# alone must keep every golden test. Under GODEBUG=cpu.fma=off math.Exp
# leaves its FMA path, the exp kernel's start-up probe must switch it off
# (TestExpKernelOffWithoutFMA), and the golden tests must hold on the
# scalar exponentials.
archcheck:
	GOARCH=arm64 $(GO) vet ./internal/tensor/... ./internal/transformer/...
	GOAMD64=v3 $(GO) test ./internal/tensor/... ./internal/transformer/...
	GODEBUG=cpu.fma=off $(GO) test ./internal/tensor/... ./internal/transformer/...

# Extra flags reach the linter via LINT_FLAGS, e.g.
#   make lint LINT_FLAGS='-json'
#   make lint LINT_FLAGS='-only mutexguard,lockbalance'
LINT_FLAGS ?=

lint:
	$(GO) run ./cmd/specinferlint $(LINT_FLAGS) ./...

# One-iteration pass over the perf microbenchmarks: catches bit-rot in the
# benchmark drivers without paying for a full measurement run.
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkForward|BenchmarkEngineIteration|BenchmarkVerifier' -benchtime 1x .

# End-to-end serving benchmark gate: the benchmark's own unit tests under
# the race detector, then a short chat-tree run, which exits non-zero
# unless every tree-speculated output equals incremental decoding token
# for token.
e2e:
	cd e2ebench && $(GO) test -race ./...
	bash e2ebench/run.sh --workload chat-tree --seed 1 --seconds 2 --trace 0

# Run the serving daemon locally (ctrl-C drains gracefully).
serve:
	$(GO) run ./cmd/specinferd -addr 127.0.0.1:8080

# End-to-end daemon smoke: start specinferd, wait for /healthz, run one
# generation, scrape /metricz, then SIGTERM and require a clean exit.
servesmoke:
	./scripts/servesmoke.sh

# Full measurement run with a pinned benchtime; writes BENCH_PR10.json
# (benchmark -> ns/op, ns/token, allocs/op, plus paged-vs-slice,
# paged-vs-reference, batched-vs-reference, prefix-cache warm-vs-cold,
# quantized-vs-float, router affinity-vs-blind, verifier traversal-vs-MSS
# accept-length, and speculation-policy adaptive-vs-static tokens/sec and
# p99 comparisons, with host provenance) at the repo root. Compare two
# reports with `go run ./cmd/benchdiff`.
bench:
	$(GO) run ./cmd/perfbench -benchtime 1s -o BENCH_PR10.json
