#!/usr/bin/env bash
# Builds the lawbench benchmark from the checkout's sources and runs it.
#
#   bash lawbench/run.sh --workload clean --seed 1 --seconds 15 --trace 0
#
# Run from the root of a lawgate checkout. Every build product (the Go
# build cache, temporary files, the binary) and every trace file stays
# under .bench_build/ in the checkout. Without the module's sources
# (go.mod, internal/) the build fails and the script exits non-zero
# before anything is measured.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/server" ]; then
	echo "lawbench: run from the root of a lawgate checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gomodcache" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOTELEMETRY=off

go build -o "$out/lawbench" ./lawbench
exec "$out/lawbench" -out "$out" "$@"
