#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. bench/ is a Go module of its own (bench/go.mod) that
# replaces `repro` with the parent directory, so it measures whatever commit
# it is checked out next to.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep everything the go command writes inside the checkout: build cache,
# module cache (empty: there are no dependencies) and its telemetry counters.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
