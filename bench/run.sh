#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload sim-fit --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh compare dirA/ dirB/
#
# The binary and the Go build cache live in $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout. The build
# needs the repository's own sources next to bench/; without them it
# fails and the script exits non-zero before any result is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C bench build -buildvcs=false -o "$out/fingersbench" .
exec "$out/fingersbench" -work "$out" "$@"
