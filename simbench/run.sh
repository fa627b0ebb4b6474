#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it with the given
# flags. Everything it builds or writes stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, and the per-run
# result, span and bench-report files.
#
#   bash simbench/run.sh --workload vlb-rpc --seed 7 --seconds 35 --trace 0
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/results"

# Offline, local toolchain, build cache inside the checkout. Fall back to
# Go's default install location when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/simbench" .)
exec "$out/simbench" -out "$out/results" "$@"
