#!/usr/bin/env bash
# Smoke-test the dsserve HTTP service end to end: start it, answer one /run
# per scheme (every scheme on a workload it is defined for), require the
# repeated request to come from the content-addressed cache, check /verify
# and /sweep, require a stall to be an ordinary 400 that names the deadlock
# and a halted run with recovery armed to heal, then SIGTERM it and require
# a clean drain (exit 0).
set -euo pipefail

ADDR="${DSSERVE_ADDR:-127.0.0.1:8077}"
BASE="http://$ADDR"
BINDIR="$(mktemp -d)"
BIN="$BINDIR/dsserve"
LOG="$(mktemp)"

go build -o "$BIN" ./cmd/dsserve

"$BIN" -addr "$ADDR" -workers 4 -queue 32 2>"$LOG" &
PID=$!
cleanup() {
  kill "$PID" 2>/dev/null || true
  cat "$LOG" >&2 || true
}
trap cleanup EXIT

# Wait for liveness.
for i in $(seq 1 50); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$PID" 2>/dev/null; then echo "dsserve died at startup" >&2; exit 1; fi
  sleep 0.1
done
# Responses are captured before grep reads them: under pipefail, a
# `curl | grep -q` pipeline fails with curl's exit 23 once grep -q has its
# match and closes the pipe.
out=$(curl -fsS "$BASE/healthz")
echo "$out" | grep -q '"status": "ok"' || { echo "unexpected /healthz response: $out" >&2; exit 1; }

run_req() { # $1 = body, $2 = expected-substring
  local out
  out=$(curl -fsS -X POST "$BASE/run" -d "$1")
  echo "$out" | grep -q "$2" || { echo "unexpected /run response for $1: $out" >&2; exit 1; }
}

# One /run per scheme, on a workload each scheme is defined for. First hit
# computes, the identical repeat must be served from the cache.
for scheme in process process-basic statement ref instance; do
  body="{\"workload\":{\"name\":\"fig21\",\"n\":60},\"scheme\":{\"name\":\"$scheme\",\"x\":4},\"config\":{\"p\":4}}"
  run_req "$body" '"cached": false'
  run_req "$body" '"cached": true'
done
# Pipelined-outer only exists for depth-2 loop nests.
body='{"workload":{"name":"nested","n":12,"m":8},"scheme":{"name":"pipeline","x":4,"g":2},"config":{"p":4}}'
run_req "$body" '"cached": false'
run_req "$body" '"cached": true'

# Cache hits must be visible in /metrics.
metrics=$(curl -fsS "$BASE/metrics")
echo "$metrics" | grep -q 'dsserve_cache_hits_total 6' || {
  echo "expected 6 cache hits in /metrics:" >&2; echo "$metrics" >&2; exit 1; }

# /compile: a Go loop nest lowered through the static frontend; the
# identical repeat must come from the compile section of the cache, raising
# the hit counter to 7.
compile_body='{"filename":"kernel.go","source":"package p\nfunc kernel(a, b []int) {\n\tfor i := 1; i < 40; i++ {\n\t\ta[i] = a[i-1] + i\n\t\tb[i] = a[i] * 2\n\t}\n}\n","config":{"p":4}}'
out=$(curl -fsS -X POST "$BASE/compile" -d "$compile_body")
echo "$out" | grep -q '"cached": false' || { echo "unexpected /compile response: $out" >&2; exit 1; }
echo "$out" | grep -q '"workload": "kernel"' || { echo "/compile missing lowered loop: $out" >&2; exit 1; }
out=$(curl -fsS -X POST "$BASE/compile" -d "$compile_body")
echo "$out" | grep -q '"cached": true' || { echo "/compile repeat not cached: $out" >&2; exit 1; }
metrics=$(curl -fsS "$BASE/metrics")
echo "$metrics" | grep -q 'dsserve_cache_hits_total 7' || {
  echo "expected 7 cache hits after /compile repeat:" >&2; echo "$metrics" >&2; exit 1; }

# A non-affine loop is a 400 whose error field is a positioned diagnostic
# with a stable reason code.
bad_body='{"filename":"bad.go","source":"package p\nfunc f(a []int) {\n\tfor i := 1; i < 9; i++ {\n\t\ta[i*i] = i\n\t}\n}\n"}'
resp=$(curl -s -w '\n%{http_code}' -X POST "$BASE/compile" -d "$bad_body")
code=$(echo "$resp" | tail -n1)
body=$(echo "$resp" | head -n -1)
[ "$code" = "400" ] || { echo "non-affine compile gave $code, want 400: $body" >&2; exit 1; }
echo "$body" | grep -q 'bad.go:4:' || { echo "diagnostic lacks position: $body" >&2; exit 1; }
echo "$body" | grep -q 'non-affine-subscript' || { echo "diagnostic lacks reason code: $body" >&2; exit 1; }

# /verify: static + dynamic verdict for a clean pair.
out=$(curl -fsS -X POST "$BASE/verify" \
  -d '{"workload":{"name":"recurrence","n":30},"scheme":{"name":"ref"},"dynamic":true}')
echo "$out" | grep -q '"ok": true' || { echo "unexpected /verify response: $out" >&2; exit 1; }

# /sweep: a small grid returns every point and a Pareto front.
out=$(curl -fsS -X POST "$BASE/sweep" \
  -d '{"workload":{"name":"fig21","n":30},"scheme":{"name":"process"},"grid":{"x":[2,4],"p":[2,4]}}')
echo "$out" | grep -q '"pareto"' || { echo "unexpected /sweep response: $out" >&2; exit 1; }

# A stall is an ordinary answer: total broadcast drop deadlocks the run,
# which is a 400 naming the deadlock, and the clean request after it is
# served.
stall='{"workload":{"name":"recurrence","n":20,"d":2},"scheme":{"name":"process","x":4},"config":{"p":4,"fault":{"seed":1,"dropProb":1}}}'
resp=$(curl -s -w '\n%{http_code}' -X POST "$BASE/run" -d "$stall")
code=$(echo "$resp" | tail -n1)
body=$(echo "$resp" | head -n -1)
[ "$code" = "400" ] || { echo "stall gave $code, want 400: $body" >&2; exit 1; }
echo "$body" | grep -q 'deadlock' || { echo "stall answer lacks the diagnosis: $body" >&2; exit 1; }
run_req '{"workload":{"name":"fig21","n":30},"scheme":{"name":"ref"},"config":{"p":4}}' '"cached": false'

# Self-healing: a halted processor with recovery armed is reclaimed and the
# run completes with recovered: true, raising the recovery counters.
run_req '{"workload":{"name":"recurrence","n":26,"d":2},"scheme":{"name":"process","x":4},"config":{"p":4,"maxCycles":200000,"fault":{"haltProc":1,"haltAtCycle":50},"recover":{"afterCycles":40}}}' \
  '"recovered": true'

# Snapshot the recovery metrics for the CI artifact.
RECOVERY_METRICS_OUT="${RECOVERY_METRICS_OUT:-$BINDIR/recovery-metrics.txt}"
curl -fsS "$BASE/metrics" | grep -E 'dsserve_(recovered_runs|recovery_cost_cycles|watchdog_trips)' \
  > "$RECOVERY_METRICS_OUT"
grep -q '^dsserve_recovered_runs_total 1$' "$RECOVERY_METRICS_OUT" ||
  { echo "recovered run not counted:" >&2; cat "$RECOVERY_METRICS_OUT" >&2; exit 1; }
echo "service smoke: recovery metrics snapshot at $RECOVERY_METRICS_OUT"

# A bad request is a 400 with a one-line diagnostic, not a crash.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/run" \
  -d '{"workload":{"name":"no-such"},"scheme":{"name":"process"}}')
[ "$code" = "400" ] || { echo "bad workload gave $code, want 400" >&2; exit 1; }

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
[ "$rc" = "0" ] || { echo "dsserve exited $rc after SIGTERM, want 0" >&2; exit 1; }
trap - EXIT
echo "service smoke: OK"
