#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the daemon under test and the
# benchmark program from source into .bench_build/ (build time is outside
# every metric), then hands all arguments to the benchmark.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
# Keep everything the toolchain writes (build cache, telemetry counters)
# inside the checkout, and never reach the network.
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/hmmd" ./cmd/hmmd >&2
go -C bench build -o "$build/hmmbench" . >&2
exec "$build/hmmbench" -hmmd "$build/hmmd" "$@"
