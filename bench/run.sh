#!/usr/bin/env bash
# Builds the benchmark and the alps-spin worker from source, then runs the
# benchmark with the given flags. Run it from the repository root:
#
#   bash bench/run.sh [flags]
#
# Build caches, binaries, temporary files and Chrome traces all stay under
# .bench_build/ in the current directory; no network access is needed.
set -euo pipefail

build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$build/bin" "$build/tmp"

(cd bench && go build -o "$build/bin/bench" . && go build -o "$build/bin/alps-spin" alps/cmd/alps-spin)
exec "$build/bin/bench" -spin "$build/bin/alps-spin" -out "$build/traces" "$@"
