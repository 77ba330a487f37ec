#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it,
# passing every argument on:
#
#   bash perfbench/run.sh --workload batch_read --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. The build cache, the binary, scratch
# DBs and span files all go under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout; nothing is downloaded.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
commit=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomod
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$here" build -trimpath -ldflags "-X main.commit=$commit" -o "$out/perfbench" . >&2
exec "$out/perfbench" --dir "$out" "$@"
