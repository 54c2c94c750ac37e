#!/bin/sh
# bench_compare.sh — the benchmark regression gate.
#
# Diffs the fresh benchmark record against the committed previous one
# and fails when BenchmarkHeterBOSearch or BenchmarkNextCandidate — the
# two timings the flattening work is accountable for — slowed by more
# than 10%. Five pairs are gated within the fresh record, on one
# machine: the journal's FS indirection over a direct append, each
# four-lane kernel over its scalar path — the Matérn map, the lockstep
# Cholesky factor and solve, and the ARD distances (a kernel may never
# be slower) — and the scheduler's fleet-prior fold over the full
# rebuild it replaced.
# scripts/bench.sh runs each pair's two benchmarks together in ten
# rounds. Duplicate rows in either record collapse by min before
# comparison (BENCH_PR4.json predates the deduplication and carries
# three BenchmarkHeterBOSearch rows).
#
# Usage:
#   scripts/bench_compare.sh                      # BENCH_PR8.json vs BENCH_PR9.json
#   scripts/bench_compare.sh old.json new.json
set -eu

cd "$(dirname "$0")/.."
OLD="${1:-BENCH_PR8.json}"
NEW="${2:-BENCH_PR9.json}"

go run ./cmd/benchgate compare -old "$OLD" -new "$NEW" \
	-bench BenchmarkHeterBOSearch,BenchmarkNextCandidate \
	-max-regress-pct 10 \
	-pair BenchmarkJournalAppendDirect=BenchmarkJournalAppend \
	-pair BenchmarkMaternScalar=BenchmarkMaternBatch \
	-pair BenchmarkLaneCholeskyScalar=BenchmarkLaneCholesky \
	-pair BenchmarkARDScalar=BenchmarkARDLanes \
	-pair BenchmarkRebuildFleetPriorFull=BenchmarkRebuildFleetPrior \
	-max-overhead-pct 2 -overhead-floor-ns 500
