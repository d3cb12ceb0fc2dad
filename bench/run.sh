#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#   bash bench/run.sh --workload crowd-agg --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and temporary files go under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory, so
# the first run compiles everything and later runs reuse the cache. The
# build fails, and the script exits non-zero, when the repository around
# bench/ is missing.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/mcbench" .)
exec "$out/mcbench" "$@"
