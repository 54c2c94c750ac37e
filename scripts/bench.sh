#!/bin/sh
# bench.sh — run the benchmark suite and emit a machine-readable record.
#
# Runs the figure/ablation benchmarks (one iteration each: they are whole
# experiment reproductions whose custom metrics, not ns/op, are the
# point), the micro-benchmarks of the core machinery, the surrogate-
# engine benchmarks, and the fault-free resilience benchmarks, then
# feeds the raw `go test -bench` output through `benchgate fmt`, which
# converts it into BENCH_PR9.json: one row per benchmark — -count
# repeats are aggregated into min and median rather than emitted as
# duplicate rows, which is how BENCH_PR4.json ended up with three
# BenchmarkHeterBOSearch entries — with allocation counters and every
# custom metric preserved.
#
# `benchgate compare` (see scripts/bench_compare.sh) then gates the
# fresh record against the committed previous one.
#
# Usage:
#   scripts/bench.sh                 # writes BENCH_PR9.json at the repo root
#   BENCH_OUT=/tmp/b.json scripts/bench.sh
set -eu

cd "$(dirname "$0")/.."
OUT="${BENCH_OUT:-BENCH_PR9.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "bench.sh: figure + ablation suite (1 iteration each)" >&2
go test -run '^$' -bench 'Fig|Ablation|Fidelity' -benchtime 1x . >>"$RAW"

# Gated micro-benchmarks run three times; benchgate records min and
# median: on a shared machine a single sample can swing 15% and
# masquerade as a regression.
echo "bench.sh: micro-benchmarks" >&2
go test -run '^$' -bench 'BenchmarkHeterBOSearch$' -benchtime 400x -count=3 . >>"$RAW"
# The warm-started rerun is recorded but not gated: no committed record
# holds a row for it yet.
go test -run '^$' -bench 'BenchmarkHeterBOWarmSearch$' -benchtime 20x -count=3 . >>"$RAW"
go test -run '^$' -bench 'BenchmarkSimulatorThroughput$' -benchtime 1s . >>"$RAW"

echo "bench.sh: fault-free resilience overhead" >&2
go test -run '^$' -bench 'BenchmarkDeployFaultFree$' -benchtime 400x -count=3 . >>"$RAW"

echo "bench.sh: journal append FS-indirection overhead pair" >&2
go test -run '^$' -bench 'BenchmarkJournalAppend(Direct)?$' -benchtime 20000x -count=3 ./internal/sched/ >>"$RAW"

echo "bench.sh: sharded plane recovery" >&2
# Recorded but not gated: no committed record holds a row for it yet.
go test -run '^$' -bench 'BenchmarkPlaneRecover$' -benchtime 10x -count=3 ./internal/shardplane/ >>"$RAW"

echo "bench.sh: surrogate engine" >&2
go test -run '^$' -bench 'BenchmarkSurrogateObserve' -benchtime 50x ./internal/bo/ >>"$RAW"
go test -run '^$' -bench 'BenchmarkFitMLE$' -benchtime 20x ./internal/gp/ >>"$RAW"
go test -run '^$' -bench 'BenchmarkNextCandidate$' -benchtime 1000x -count=3 ./internal/core/ >>"$RAW"

go run ./cmd/benchgate fmt -out "$OUT" <"$RAW"

echo "bench.sh: wrote $OUT" >&2
