#!/usr/bin/env bash
# Smoke-test the dsserve cluster end to end with real processes. Every wait
# is a bounded loop: the script fails rather than hangs.
#
# Three nodes agree on the ring, a request computed via one node is a cache
# hit via another (the forward visible in /metrics), a sweep merges
# cluster-wide, and a hot tenant is shed with 429s while a cool tenant is
# served. Then the cluster rolls: SIGTERM node b (clean drain; a key b
# owned is recomputed by a survivor, whose repeat answers b's hit bytes
# exactly), hard-kill node c (the prober
# demotes it, healthz flips to degraded, a key node a computed is still
# served from its cache, and a sweep through a, alone in its ring, answers
# in full), and restart c (readmitted within the probe window, healthz back
# to ok).
#
# Partitions are rehearsed in process instead, where the test cluster cuts
# and heals peer links: TestPartitionMinoritySweepsAndHeals in
# internal/cluster/partition_test.go.
set -euo pipefail

PORT_BASE="${DSCLUSTER_PORT_BASE:-18081}"
BINDIR="$(mktemp -d)"
BIN="$BINDIR/dsserve"
TOKEN="smoke-peer-token"

go build -o "$BIN" ./cmd/dsserve

PIDS=() LOGS=()
cleanup() {
  kill "${PIDS[@]}" 2>/dev/null || true
  for entry in "${LOGS[@]}"; do
    echo "--- ${entry%%=*} log ---" >&2; cat "${entry#*=}" >&2 || true
  done
}
trap cleanup EXIT

fail() { echo "$*" >&2; exit 1; }

# start_node ID PORT PEERS [FLAGS...] starts one cluster node and sets PID.
start_node() {
  local id=$1 port=$2 peers=$3 log
  shift 3
  log="$(mktemp)"
  LOGS+=("$id ($port)=$log")
  "$BIN" -addr "127.0.0.1:$port" -node-id "$id" -advertise "http://127.0.0.1:$port" \
    -peers "$peers" -peer-token "$TOKEN" -workers 2 \
    -probe-interval 250ms -suspect-after 2 -rejoin-after 2 "$@" 2>"$log" &
  PID=$!
  PIDS+=("$PID")
}

# wait_until TRIES PAUSE CMD... retries CMD until it succeeds; false if never.
wait_until() {
  local tries=$1 pause=$2
  shift 2
  for _ in $(seq 1 "$tries"); do
    if "$@"; then return 0; fi
    sleep "$pause"
  done
  return 1
}

healthz_up() { curl -fsS "$1/healthz" >/dev/null 2>&1; }
require_healthy() {
  for base; do
    wait_until 50 0.1 healthz_up "$base" || true
    curl -fsS "$base/healthz" | grep -q '"status": "ok"' || fail "node at $base not healthy"
  done
}
# require_ring_agreement BASE... : every node reports the first one's ring
# version and sees all three members.
require_ring_agreement() {
  local ring hz
  ring=$(curl -fsS "$1/healthz" | grep '"ringVersion"')
  for base; do
    hz=$(curl -fsS "$base/healthz")
    echo "$hz" | grep -qF "$ring" || fail "ring version mismatch: $base reports $hz, $1 reports $ring"
    echo "$hz" | grep -q '"ringMembers": 3' || fail "node at $base does not see 3 members: $hz"
  done
}
# has_state BASE PEER STATE: BASE's failure detector holds PEER in STATE.
has_state() {
  curl -s "$1/healthz" | grep -A1 "\"id\": \"$2\"" | grep -q "\"state\": \"$3\""
}
metric() { # BASE NAME: the value of an exposition line (NAME may carry labels)
  curl -s "$1/metrics" | awk -v name="$2" 'index($0, name " ") == 1 {print $2}'
}
sum_metric() { # NAME BASE...: the metric summed over nodes
  local name=$1 total=0 v
  shift
  for base; do
    v=$(metric "$base" "$name")
    total=$((total + ${v:-0}))
  done
  echo "$total"
}
stop_clean() { # PID...: SIGTERM, then require exit 0 from each
  kill -TERM "$@"
  for pid; do
    rc=0; wait "$pid" || rc=$?
    [ "$rc" = "0" ] || fail "node (pid $pid) exited $rc after SIGTERM, want 0"
  done
}
run_body() { # N: a /run request body
  echo "{\"workload\":{\"name\":\"fig21\",\"n\":$1},\"scheme\":{\"name\":\"process\",\"x\":4},\"config\":{\"p\":4}}"
}

PA=$PORT_BASE PB=$((PORT_BASE + 1)) PC=$((PORT_BASE + 2))
BASE_A="http://127.0.0.1:$PA" BASE_B="http://127.0.0.1:$PB" BASE_C="http://127.0.0.1:$PC"
TENANT_FLAGS=(-tenant-rate 5 -tenant-burst 5)
start_node a "$PA" "b=$BASE_B,c=$BASE_C" "${TENANT_FLAGS[@]}"; PID_A=$PID
start_node b "$PB" "a=$BASE_A,c=$BASE_C" "${TENANT_FLAGS[@]}"; PID_B=$PID
start_node c "$PC" "a=$BASE_A,b=$BASE_B" "${TENANT_FLAGS[@]}"; PID_C=$PID
require_healthy "$BASE_A" "$BASE_B" "$BASE_C"
require_ring_agreement "$BASE_A" "$BASE_B" "$BASE_C"
echo "cluster smoke: 3 nodes agree on the ring"

# Cross-node cache hit: compute through node b, repeat through node c. The
# key (fig21, N 60) is owned by a, so both are forwarded to a: the compute
# is a's miss, which b does not keep, and the repeat is a's hit, which c
# keeps. A second repeat at c is then answered by c itself, from the copy
# it kept.
body=$(run_body 60)
curl -fsS -X POST "$BASE_B/run" -d "$body" | grep -q '"cached": false' ||
  fail "first cluster /run was already cached?"
curl -fsS -X POST "$BASE_C/run" -d "$body" | grep -q '"cached": true' ||
  fail "repeat through node c missed the cluster cache"
forwards=$(sum_metric dsserve_peer_forwards_total "$BASE_A" "$BASE_B" "$BASE_C")
[ "$forwards" -ge 2 ] || fail "want the compute and the repeat forwarded to a (got $forwards forwards)"
out=$(curl -fsS -D - -X POST "$BASE_C/run" -d "$body")
echo "$out" | grep -qi '^X-DSServe-Node: c' || fail "second repeat at c was not answered by c itself: $out"
echo "$out" | grep -q '"cached": true' || fail "second repeat at c was not a cache hit: $out"
echo "cluster smoke: cross-node cache hit ($forwards forwards), then kept by node c"

# A sweep through one node fans out cluster-wide and still returns the full
# merged answer with its Pareto front.
sweep='{"workload":{"name":"fig21","n":48},"scheme":{"name":"process"},"grid":{"x":[2,4],"p":[2,4],"chunk":[1,2]}}'
out=$(curl -fsS -X POST "$BASE_A/sweep" -d "$sweep")
echo "$out" | grep -q '"pareto"' || fail "cluster sweep missing pareto: $out"
echo "$out" | grep -q '"failed": 0' || fail "cluster sweep had failures: $out"
echo "cluster smoke: cluster-wide sweep merged"

# Hot tenant: burn the token bucket, expect 429 + Retry-After, the shed
# visible in /metrics, and a cool tenant still served.
shed=0
for _ in $(seq 1 12); do
  code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE_A/run" \
    -H 'X-DSServe-Tenant: hot' -d "$body")
  [ "$code" = "429" ] && shed=$((shed + 1))
done
[ "$shed" -ge 1 ] || fail "hot tenant was never shed across 12 rapid requests"
curl -s -X POST "$BASE_A/run" -H 'X-DSServe-Tenant: hot' -d "$body" \
  -o /dev/null -D - | grep -qi '^Retry-After:' || fail "shed response missing Retry-After"
m=$(curl -fsS "$BASE_A/metrics")
echo "$m" | grep -q 'dsserve_tenant_shed_total{tenant="hot"}' ||
  fail "metrics missing hot tenant shed counter: $m"
curl -fsS -X POST "$BASE_B/run" -H 'X-DSServe-Tenant: cool' -d "$body" >/dev/null ||
  fail "cool tenant rejected during hot tenant shedding"
echo "cluster smoke: hot tenant shed $shed/12, cool tenant served"

# Step 1 — SIGTERM node b: it must drain cleanly (exit 0). Its cache leaves
# with it: a key b owned is recomputed by its next owner ("cached": false),
# and the repeat is byte-identical to b's own hit answer. Before the drain,
# find such a key: entered at b, its miss is answered by b itself. Every
# request below names its own tenant, so admission never sheds it.
drain_n=""
for n in $(seq 100 2 160); do
  curl -fsS -D "$BINDIR/probe.hdr" -o /dev/null -X POST "$BASE_B/run" \
    -H "X-DSServe-Tenant: drain-probe-$n" -d "$(run_body "$n")"
  if grep -qi '^X-DSServe-Node: b' "$BINDIR/probe.hdr"; then drain_n=$n; break; fi
done
[ -n "$drain_n" ] || fail "no fig21 key with N in 100..160 is owned by node b"
curl -fsS -o "$BINDIR/b.hit" -X POST "$BASE_B/run" -H 'X-DSServe-Tenant: drain-hit' -d "$(run_body "$drain_n")"
grep -q '"cached": true' "$BINDIR/b.hit" || fail "node b's repeat of N=$drain_n was not a hit: $(cat "$BINDIR/b.hit")"
stop_clean "$PID_B"
curl -fsS -o "$BINDIR/first" -X POST "$BASE_A/run" -H 'X-DSServe-Tenant: drain-first' -d "$(run_body "$drain_n")"
grep -q '"cached": false' "$BINDIR/first" ||
  fail "the survivors' first answer for b's key N=$drain_n was not a recomputation: $(cat "$BINDIR/first")"
curl -fsS -o "$BINDIR/again" -X POST "$BASE_A/run" -H 'X-DSServe-Tenant: drain-again' -d "$(run_body "$drain_n")"
cmp -s "$BINDIR/b.hit" "$BINDIR/again" ||
  fail "the survivors' repeat for b's key N=$drain_n differs from b's hit: $(cat "$BINDIR/again")"
# The survivors keep serving: requests previously owned by b heal onto a
# and c.
for i in $(seq 1 5); do
  # Distinct tenants: this loop tests survival, not the admission budget.
  curl -fsS -X POST "$BASE_A/run" -H "X-DSServe-Tenant: survivor-$i" -d "$(run_body $((60 + i)))" |
    grep -q '"cycles"' || fail "survivor cluster failed to serve run $i after node b left"
done
echo "cluster smoke: node b drained; its key N=$drain_n recomputed, then byte-identical to b's hit"

# Step 2 — hard-kill node c (no drain, no departure announcement): a's
# prober must demote it, healthz must flip to degraded (a majority of
# configured peers demoted) with a 503, the first leg's key, which a owns
# and computed, must still be served from a's cache without recomputation,
# and a sweep through a must answer in full: every point is deterministic,
# so the last node standing computes the same points the cluster would.
kill -9 "$PID_C" 2>/dev/null || true
wait "$PID_C" 2>/dev/null || true
wait_until 50 0.2 has_state "$BASE_A" c demoted || fail "node a never demoted the hard-killed node c"
hz_code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE_A/healthz")
[ "$hz_code" = "503" ] || fail "healthz with a majority of peers demoted returned $hz_code, want 503"
curl -s "$BASE_A/healthz" | grep -q '"status": "degraded"' ||
  fail "healthz body not marked degraded with both peers demoted"
[ "$(metric "$BASE_A" dsserve_degraded)" = "1" ] ||
  fail "metrics missing dsserve_degraded 1 on the last node standing"
curl -fsS -X POST "$BASE_A/run" -H 'X-DSServe-Tenant: degraded-check' -d "$body" |
  grep -q '"cached": true' || fail "degraded node a failed to serve the key it computed from cache"
echo "cluster smoke: degraded node a (503 healthz) still serves from its cache"
out=$(curl -fsS -X POST "$BASE_A/sweep" -H 'X-DSServe-Tenant: degraded-sweep' -d "$sweep")
echo "$out" | grep -q '"pareto"' || fail "degraded node a's sweep missing pareto: $out"
echo "$out" | grep -q '"failed": 0' || fail "degraded node a's sweep had failures: $out"
echo "cluster smoke: degraded node a sweeps alone"

# Step 3 — restart node c on its original address: the prober must readmit
# it within the probe window, healthz must return to ok (only b remains
# demoted), and the rejoined node serves traffic again.
start_node c "$PC" "a=$BASE_A,b=$BASE_B" "${TENANT_FLAGS[@]}"; PID_C=$PID
wait_until 50 0.2 has_state "$BASE_A" c alive || fail "restarted node c was not readmitted within the probe window"
curl -fsS "$BASE_A/healthz" | grep -q '"status": "ok"' || fail "node a healthz not ok after node c rejoined"
rejoins=$(metric "$BASE_A" dsserve_rejoins_total)
[ "${rejoins:-0}" -ge 1 ] || fail "node a recorded no rejoins after c's restart"
curl -fsS -X POST "$BASE_C/run" -H 'X-DSServe-Tenant: rejoin-check' -d "$body" |
  grep -q '"cycles"' || fail "rejoined node c failed to serve"
echo "cluster smoke: node c rejoined within the probe window ($rejoins rejoins on a)"

stop_clean "$PID_A" "$PID_C"

trap - EXIT
echo "cluster smoke: OK"
