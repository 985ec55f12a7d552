#!/usr/bin/env bash
# Builds the benchmark and the slicekvsd daemon from this checkout, then
# runs one benchmark workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload fwd-rss --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --regen-digest     # rewrite perfbench/reference_digests.json
#
# Everything the build and the run leave behind goes under .bench_build/
# in the checkout (Go build cache included), so nothing is written outside
# it. Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/slicekvsd" sliceaware/cmd/slicekvsd
) >&2

exec "$out/perfbench" -root "$root" -daemon "$out/slicekvsd" -work "$out" "$@"
