#!/usr/bin/env bash
# Builds the benchmark and cmd/slipd from the checkout's source, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-static --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/slipd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root: the slipd and simulator sources are missing" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod

go build -o "$build/bin/slipd" ./cmd/slipd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --slipd "$build/bin/slipd" --work-dir "$build/perfbench" "$@"
