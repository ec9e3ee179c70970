#!/usr/bin/env bash
# Builds the harness into .bench_build/ at the root of the checkout and
# runs it from the root with the given flags. Everything the Go toolchain
# writes (build cache, module cache, its own counters) is pointed into
# .bench_build/ too, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
  cd "$root/bench"
  GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
    go build -buildvcs=false -o "$out/lmp-bench" .
)
cd "$root"
exec "$out/lmp-bench" "$@"
