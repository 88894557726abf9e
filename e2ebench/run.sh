#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run from the repository root:
#   bash e2ebench/run.sh --workload decide_miss --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache, data directories and span files all
# stay under .bench_build/e2ebench in the current directory.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/e2ebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$src" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --workdir "$out" "$@"
