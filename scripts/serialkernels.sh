#!/usr/bin/env bash
# Fails if internal/tensor's non-test code imports sync or runtime (or a
# package under either), on amd64 or arm64. The tensor kernels run on
# their caller's goroutine; work is split only by the engine's worker
# pool and by the transformer's attention stage (DESIGN.md §28), so a
# kernel that grows its own fan-out fails here. `make archcheck` and CI
# run it.
set -euo pipefail

GO="${GO:-go}"
for arch in amd64 arm64; do
	imports=$(GOARCH=$arch "$GO" list -f '{{join .Imports " "}}' ./internal/tensor)
	for pkg in $imports; do
		case "$pkg" in
		sync | sync/* | runtime | runtime/*)
			echo "internal/tensor ($arch) imports $pkg: its kernels must stay serial (DESIGN.md §28)" >&2
			exit 1
			;;
		esac
	done
done
echo "internal/tensor imports neither sync nor runtime"
