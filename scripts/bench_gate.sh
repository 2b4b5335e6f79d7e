#!/usr/bin/env bash
# bench_gate.sh — benchmark regression gate.
#
# Measures a fresh benchmark snapshot of the canonical workload x scheme grid
# and compares it against the committed baseline (the highest-numbered
# BENCH_*.json at the repo root). Fails when any point's simulated fields
# differ from the baseline, when a point is in only one snapshot, or when
# normalized cycle throughput — simulated cycles per wall second, scaled by
# the host calibration loop so baselines recorded on other machines stay
# comparable — regresses by more than GATE_PCT percent.
#
# Environment:
#   GATE_PCT          regression threshold in percent (default 10)
#   BENCH_GATE_FRESH  path to a pre-measured "fresh" snapshot; skips the
#                     measurement step (used by tests to doctor a regression,
#                     and handy for comparing two saved snapshots)
#   BENCH_GATE_OUT    where to write the delta table (default bench_delta.txt)
set -euo pipefail
cd "$(dirname "$0")/.."

GATE_PCT="${GATE_PCT:-10}"
OUT="${BENCH_GATE_OUT:-bench_delta.txt}"

baseline=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -n 1 || true)
if [ -z "$baseline" ]; then
    echo "bench_gate: no committed BENCH_*.json baseline found" >&2
    exit 1
fi
echo "bench_gate: baseline $baseline, threshold ${GATE_PCT}%"

fresh="${BENCH_GATE_FRESH:-}"
if [ -z "$fresh" ]; then
    fresh=$(mktemp "${TMPDIR:-/tmp}/bench_fresh.XXXXXX.json")
    trap 'rm -f "$fresh"' EXIT
    echo "bench_gate: measuring fresh snapshot..."
    go run ./cmd/dsbench -json "$fresh"
fi

go run ./cmd/dsbench -compare -gate "$GATE_PCT" "$baseline" "$fresh" | tee "$OUT"
