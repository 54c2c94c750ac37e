GO ?= go

.PHONY: all vet build test race cover cover-update bench bench-ab conformance multifidelity fleet loadgen loadgen-kill crashstorm ci clean

all: ci

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# cover gates total statement coverage against the ratcheting floor in
# .coverage-baseline; cover-update raises the floor after coverage gains.
cover:
	sh scripts/cover.sh

# bench runs the figure, micro, and surrogate-engine benchmarks and
# records ns/op plus custom metrics in BENCH_PR9.json — one row per
# benchmark (cmd/benchgate aggregates -count repeats into min/median).
bench:
	sh scripts/bench.sh

# bench-compare gates the fresh record against the committed previous
# one: >10% regression on BenchmarkHeterBOSearch or
# BenchmarkNextCandidate fails the build, as does more than 2% (or
# 500ns, whichever is larger) of fault-free FS-indirection overhead on
# the journal append pair, or of a four-lane kernel (Matérn map,
# lockstep Cholesky factor and solve, ARD distances) over its scalar
# path. bench.sh runs each pair's two benchmarks together, ten rounds.
bench-compare:
	sh scripts/bench_compare.sh

# bench-ab runs ctrlbench on this working tree and on BASE, alternated
# per seed on one machine, and prints paired end-to-end metrics,
# medians, quartiles and win counts (scripts/ctrlbench_ab.sh), e.g.
#   make bench-ab BASE=main WORKLOAD=warm-rerun SEEDS="1 2 3"
# WORKLOAD and SEEDS left unset take the script's defaults.
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev> [WORKLOAD=...] [SEEDS=...]" >&2; exit 2; }
	bash scripts/ctrlbench_ab.sh "$(BASE)" "$(WORKLOAD)" "$(SEEDS)"

cover-update:
	sh scripts/cover.sh --update

# conformance soaks the search end to end against the brute-force
# oracle and the invariant engine; failures are shrunk to minimal JSON
# reproducers under conformance-failures/. -shards is the worker count:
# cases run on that many workers and print in case order, so the output
# is the same at any count.
# The flattened acquisition loop bought a 10× case count in the same
# CI time (~30s of compute). Correctness invariants stay
# zero-tolerance; oracle-regret — a quality SLO on a randomized
# optimizer — is budgeted at 1% tail outliers (seed 7 draws 8/2000, all
# budget cases: a reproducer's "scenario": 2 is FastestWithBudget, traced
# as scenario3-fastest-budget; reproducers are still written).
conformance:
	$(GO) run -race ./cmd/conformance -cases 2000 -seed 7 -shards 2 -max-regret-outlier-rate 0.01

# multifidelity runs the paired regret-vs-profiling-dollars suite: the
# same 40 generated cases searched with full probes only and with the
# 0.25,0.5 sub-sampling ladder, both arms oracle-scored. The report
# lands in BENCH_PR7.json; the ladder arm must not spend more.
multifidelity:
	$(GO) run ./cmd/conformance -regret-cases 40 -seed 1 -fidelity 0.25,0.5 -regret-out BENCH_PR7.json

# fleet runs the paired cold-vs-fleet-warmed study: the same 40 generated
# cases searched once with no prior and once with a synthetic fleet
# meta-prior built from same-family donor curves, both arms oracle-scored
# and invariant-checked. The report lands in BENCH_PR10.json; the gate is
# zero violations in both arms and the warm arm reaching within 5% of the
# oracle in strictly fewer probes (median) than cold.
fleet:
	$(GO) run ./cmd/conformance -fleet-cases 40 -seed 1 -fleet-out BENCH_PR10.json

# loadgen is the control-plane scale smoke: a submission storm against
# the sharded plane, with admission latency percentiles, throughput,
# and rejection rate written to BENCH_PR6.json. CI runs 5k jobs; the
# full gate is 100k (see cmd/loadgen).
loadgen:
	$(GO) run ./cmd/loadgen -jobs 5000 -shards 4 -concurrency 256 -out BENCH_PR6.json

# loadgen-kill is the shard-failover drill: the same storm, but one
# shard is killed and restarted from its journal mid-flight. Recovery
# time, 503s served while degraded, and post-restart admission p99
# merge into BENCH_PR9.json under "loadgen_kill" (the benchmark rows in
# the file survive the merge, and vice versa). Every acked submission
# must still be resident after the restart — journal replay is on the
# hook for that.
loadgen-kill:
	$(GO) run ./cmd/loadgen -jobs 2000 -shards 2 -concurrency 64 -tenants 64 \
		-kill-shard-at 0.3 -kill-shard 1 -out BENCH_PR9.json -merge-key loadgen_kill

# crashstorm soaks the journal stack under ≥500 seeded storage-fault
# plans — crashes at every strided write/sync/rename point across
# append, rotation, and compaction, plus flaky-disk overlays — and
# checks the crash-consistency invariants after each simulated reboot.
# Failures are shrunk to minimal reproducer JSON under
# crashstorm-failures/.
crashstorm:
	$(GO) run ./cmd/crashstorm -plans 500 -seed 1 -out crashstorm-failures

ci: vet build race cover

clean:
	$(GO) clean ./...
	rm -f coverage.out
