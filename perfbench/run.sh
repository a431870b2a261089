#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and
# runs it. Run it from the repository root:
#
#   bash perfbench/run.sh --workload thm11-regular --seed 1 --seconds 35 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/ in
# the checkout: the Go build cache, the binary, checkpoint scratch files,
# traces and result records.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

# The go command keeps its cache, module path, temporary files, and its
# config and telemetry counters (under XDG_CONFIG_HOME) in .bench_build
# too, so a run writes nothing outside the checkout.
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" "$@"
