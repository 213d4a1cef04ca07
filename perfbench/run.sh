#!/usr/bin/env bash
# Builds nvrel and the benchmark from the checkout in the current
# directory, then runs the benchmark:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Everything it writes (binaries, Go build cache, span files) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
(cd "$root" && go build -o "$build/nvrel" ./cmd/nvrel)

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/perfbench" --nvrel "$build/nvrel" --root "$root" --out "$build" --commit "$commit" "$@"
