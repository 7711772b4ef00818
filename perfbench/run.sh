#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#	bash perfbench/run.sh --workload repro-data --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, GOPATH, temporary files, the
# binary) goes under .bench_build at the repository root. The build needs
# only the local Go toolchain: the benchmark module depends on nothing
# but the repository's own module, which it reaches by a replace
# directive.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
