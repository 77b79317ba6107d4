#!/usr/bin/env bash
# Builds perfbench from source and runs it with the arguments given, e.g.
#   bash perfbench/run.sh --workload xfer-hmac --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs, the Go build cache, the
# per-seed digests and span dumps all stay under .bench_build there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" -state "$out/perfbench" "$@"
