#!/usr/bin/env bash
# Builds the mcubench command from this checkout and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh -workload sweep-cold -seed 1
#
# Run it from the repository root. The build cache, the binary, the
# result stores and the spans all stay under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -f bench/go.mod || ! -d internal ]]; then
	echo "bench/run.sh: run from the repository root; the benchmark builds the stack from its sources" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/mcubench" .)
exec "$out/mcubench" -workdir "$out/work" "$@"
