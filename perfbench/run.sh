#!/usr/bin/env bash
# Builds the mcpat benchmark from source and runs it. Invoke from the
# repository root:
#
#   bash perfbench/run.sh --workload dse-cold --seed 1 --seconds 10 --trace 0
#
# Every build output, the Go build cache and the traced pass's spans stay
# under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
# The checkout need not be a git repository: no VCS stamping.
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
