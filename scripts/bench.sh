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

echo "bench.sh: sharded plane recovery" >&2
# Recorded but not gated: no committed record holds a row for it yet.
go test -run '^$' -bench 'BenchmarkPlaneRecover$' -benchtime 10x -count=3 ./internal/shardplane/ >>"$RAW"

echo "bench.sh: surrogate engine" >&2
go test -run '^$' -bench 'BenchmarkSurrogateObserve' -benchtime 50x ./internal/bo/ >>"$RAW"
go test -run '^$' -bench 'BenchmarkFitMLE$' -benchtime 20x ./internal/gp/ >>"$RAW"
go test -run '^$' -bench 'BenchmarkNextCandidate$' -benchtime 1000x -count=3 ./internal/core/ >>"$RAW"
# The sweep over the full menu space with a fleet prior armed is recorded
# but not gated: no committed record holds a row for it yet.
go test -run '^$' -bench 'BenchmarkNextCandidateFleetPrior$' -benchtime 200x -count=3 ./internal/core/ >>"$RAW"

# Within-record pairs, which bench_compare.sh gates on one machine: the
# journal's FS indirection over a direct append, each four-lane kernel
# over its scalar path (the Matérn map over 256 values, the factor,
# solve and yᵀα of three 24×24 systems in lockstep, the ARD distances of
# 300 pairs), and the scheduler's fleet-prior fold over the full rebuild
# it replaced (a 1,000-entry cache after one job's 30 probes). A pair's
# two benchmarks run in the same `go test` process, ten rounds; each
# round runs each side ten times for 2000 iterations (20 for the
# millisecond-scale rebuild pair), a few milliseconds, and benchgate
# keeps each side's minimum over its 100 runs. Short runs let
# that minimum find the moments a contended CPU runs the benchmark
# alone: on 2 vCPUs beside two CPU-bound processes, one 20000-iteration
# run per side and round failed the journal pair's 500 ns bound in 7 of
# 30 sections, this layout in none of 27.
pair() { # package, base benchmark, candidate benchmark[, iterations]
	echo "bench.sh: pair $2 / $3" >&2
	for round in 1 2 3 4 5 6 7 8 9 10; do
		go test -run '^$' -bench "$2\$|$3\$" -benchtime "${4:-2000}x" -count=10 "$1" >>"$RAW"
	done
}
pair ./internal/sched/ BenchmarkJournalAppendDirect BenchmarkJournalAppend
pair ./internal/gp/ BenchmarkMaternScalar BenchmarkMaternBatch
pair ./internal/mat/ BenchmarkLaneCholeskyScalar BenchmarkLaneCholesky
pair ./internal/gp/ BenchmarkARDScalar BenchmarkARDLanes
pair ./internal/sched/ BenchmarkRebuildFleetPriorFull BenchmarkRebuildFleetPrior 20

go run ./cmd/benchgate fmt -out "$OUT" <"$RAW"

echo "bench.sh: wrote $OUT" >&2
