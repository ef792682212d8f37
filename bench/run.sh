#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything the go tool writes — compiler cache, scratch files, its own
# config and counters — is pointed into .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/abacbench" .
cd "$root"
exec "$build/abacbench" "$@"
