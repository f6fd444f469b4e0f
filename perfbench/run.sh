#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload query-large --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, scratch data and spans all stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/home"
export GOCACHE="$out/gocache" HOME="$out/home" GOPATH="$out/home/go" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
