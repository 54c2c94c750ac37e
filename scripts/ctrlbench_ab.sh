#!/usr/bin/env bash
# ctrlbench_ab.sh — a same-machine A/B of the control-plane benchmark:
# the working tree against BASE_REV.
#
# Checks BASE_REV out in a temporary git worktree and, for each seed,
# runs `bash ctrlbench/run.sh --workload WORKLOAD --seed SEED` once in
# each tree, alternating which side runs first from seed to seed, so a
# drift in the host's speed lands on both sides. It prints each pair's
# six end-to-end metrics and the host's CPU steal during each run, then
# per metric both sides' median and quartiles and how many pairs the
# working tree won. A pair whose outcome digests differ (durable-admit
# prints none), or a run that does not report itself correct, is
# flagged, and the script then exits 1. The worktree is removed on
# exit.
#
# Usage:
#   scripts/ctrlbench_ab.sh BASE_REV [workload] [seeds]
#   scripts/ctrlbench_ab.sh HEAD~1 cold-search "1 2 3 13 14 15 16 17 18 19"
#   scripts/ctrlbench_ab.sh main warm-rerun "1 2 3"
#
# workload defaults to cold-search and seeds to "1 2 3 4 5 6 7 8 9 10"
# (an empty argument takes the default too). Every run lasts
# ctrlbench's default --seconds, the length BENCHMARK.json runs. Each
# run's full output is kept under the printed results directory.
set -euo pipefail

if [ $# -lt 1 ]; then
	sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//' >&2
	exit 2
fi
base_rev=$1
workload=${2:-cold-search}
seeds=${3:-1 2 3 4 5 6 7 8 9 10}

head=$(git rev-parse --show-toplevel)
cd "$head"
base_sha=$(git rev-parse --verify "$base_rev^{commit}")
tmp=$(mktemp -d)
base="$tmp/base"
cleanup() {
	git -C "$head" worktree remove --force "$base" >/dev/null 2>&1 || true
	git -C "$head" worktree prune >/dev/null 2>&1 || true
}
trap cleanup EXIT
git worktree add --detach "$base" "$base_sha" >/dev/null
out="$tmp/runs"
mkdir -p "$out"
echo "ctrlbench A/B: $workload, seeds $seeds" >&2
echo "  base $base_sha; head = working tree of $head; runs in $out" >&2

metrics="setup_s ops_per_s op_ms_p50 op_ms_p90 rss_peak_mb ok_share"

# run SIDE SEED: one ctrlbench run in SIDE's tree.
run() {
	local tree=$head
	[ "$1" = base ] && tree=$base
	(cd "$tree" && bash ctrlbench/run.sh --workload "$workload" --seed "$2") \
		>"$out/$1-$2.txt" 2>&1 || {
		echo "ctrlbench failed on the $1 side, seed $2:" >&2
		tail -5 "$out/$1-$2.txt" >&2
		exit 1
	}
}

# value FILE NAME: the metric's value in one run's output.
value() { awk -v m="$2" '$1 == "metric" && $2 == m { print $4 }' "$1"; }
digest() { awk '/\]: digest / { print $NF; exit }' "$1"; }
steal() { sed -n 's/.*cpu steal \([0-9.]*\)%.*/\1/p' "$1"; }

mismatch=0
k=0
printf '%-5s %-5s' seed first
for m in $metrics; do printf ' %23s' "$m"; done
printf ' %11s  digest\n' 'steal % b/h'
for seed in $seeds; do
	if [ $((k % 2)) -eq 0 ]; then order="base head"; else order="head base"; fi
	k=$((k + 1))
	for side in $order; do run "$side" "$seed"; done
	b="$out/base-$seed.txt"
	h="$out/head-$seed.txt"
	printf '%-5s %-5s' "$seed" "${order%% *}"
	for m in $metrics; do
		printf ' %23s' "$(value "$b" "$m") → $(value "$h" "$m")"
		echo "$m $(value "$b" "$m") $(value "$h" "$m")" >>"$out/pairs"
	done
	db=$(digest "$b")
	dh=$(digest "$h")
	note=${db:-none}
	if [ "$db" != "$dh" ]; then
		note="MISMATCH base ${db:-none} head ${dh:-none}"
		mismatch=1
	fi
	for f in "$b" "$h"; do
		if ! grep -q '"correct":true' "$f"; then
			note="$note; INCORRECT ${f##*/}"
			mismatch=1
		fi
	done
	printf ' %11s  %s\n' "$(steal "$b")/$(steal "$h")" "$note"
done

# Per metric: medians and quartiles (linear interpolation between
# order statistics) of each side, and the pairs the head won.
echo
printf '%-12s %-32s %-32s %s\n' metric 'base median [q1, q3]' 'head median [q1, q3]' 'head better'
for m in $metrics; do
	better=lower
	case $m in ops_per_s | ok_share) better=higher ;; esac
	quart() { # column of $out/pairs for metric m, sorted
		awk -v m="$m" -v c="$1" '$1 == m { print $c }' "$out/pairs" | sort -g |
			awk '{ v[NR] = $1 } END {
				split("0.25 0.5 0.75", q, " ")
				for (i = 1; i <= 3; i++) {
					p = 1 + (NR - 1) * q[i]; lo = int(p); f = p - lo
					r[i] = (lo < NR) ? v[lo] + f * (v[lo + 1] - v[lo]) : v[lo]
				}
				printf "%.4g [%.4g, %.4g]", r[2], r[1], r[3]
			}'
	}
	wins=$(awk -v m="$m" -v dir="$better" '$1 == m { n++; if ((dir == "lower" && $3 < $2) || (dir == "higher" && $3 > $2)) w++ }
		END { printf "%d/%d", w, n }' "$out/pairs")
	printf '%-12s %-32s %-32s %s (%s is better)\n' "$m" "$(quart 2)" "$(quart 3)" "$wins" "$better"
done
if [ $mismatch -ne 0 ]; then
	echo "FLAGGED: a digest differs between the sides, or a run was not correct" >&2
	exit 1
fi
