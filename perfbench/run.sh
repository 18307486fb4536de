#!/usr/bin/env bash
# Builds cophyd and the benchmark from the checkout's source, then runs
# one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-recommend --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout, including the Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/cophyd" ./cmd/cophyd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
