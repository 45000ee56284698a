#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from this
# directory's own module and runs it from the checkout root. Everything the
# Go toolchain and the harness write stays under <root>/.bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && env -u GOMAXPROCS go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
