#!/usr/bin/env bash
# Checks that the benchmark agrees with itself: runs every workload at
# seeds 1-5 as two sets, one after the other, and fails if any end-to-end
# metric's median over one set is worse than the other set's by more than
# its bound in BENCHMARK.json. It then makes one traced run per workload
# at seed 1. Run it from the repository root (about 20 minutes):
#
#	bash bench/agree.sh
#
# Sets of five rather than single runs: a bound applies to a median, and
# on a shared host one run of a workload can differ from the next by 30%.
#
# Everything it measures is written to bench/baseline/:
#
#	a/<workload>.<seed>.json       first set (standard output of each run)
#	b/<workload>.<seed>.json       second set
#	trace/<workload>.1.json        traced run (per-layer metrics)
#	trace/<workload>.spans.json    its where-the-time-goes breakdown and sample span trees
set -euo pipefail

seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
workloads="run-hot run-cold sweep-3node mixed-3node"
out=bench/baseline

mkdir -p "$out/a" "$out/b" "$out/trace"
for side in a b; do
	for seed in 1 2 3 4 5; do
		for w in $workloads; do
			echo "agree: set $side, $w, seed $seed" >&2
			bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$side/$w.$seed.json"
		done
	done
done
for w in $workloads; do
	echo "agree: $w traced" >&2
	bash bench/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
		--trace-out "$out/trace/$w.spans.json" >"$out/trace/$w.1.json"
done

# A regression either way is a disagreement.
status=0
.bench_build/dsload -compare "$out/a" "$out/b" || status=1
.bench_build/dsload -compare "$out/b" "$out/a" >/dev/null || status=1
if [ "$status" -ne 0 ]; then
	echo "agree: the two sets differ by more than a bound" >&2
fi
exit "$status"
