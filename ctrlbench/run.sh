#!/usr/bin/env bash
# Builds the control-plane benchmark from source and runs it with the
# given arguments, e.g.
#
#	bash ctrlbench/run.sh --workload cold-search --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache and the binary stay
# under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/ctrlbench" && go build -o "$out/ctrlbench" .)
exec "$out/ctrlbench" "$@"
