#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Every argument is passed to
# the benchmark, for example:
#
#   bash perfbench/run.sh --workload converge --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files go to $CARGO_TARGET_DIR,
# or .bench_build when it is unset, relative to the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

# Keep every file the go command writes inside the build directory.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --span-dir "$out" "$@"
