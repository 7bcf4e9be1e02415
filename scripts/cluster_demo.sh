#!/usr/bin/env bash
# cluster_demo.sh — end-to-end smoke of the millid cluster topology.
#
# Builds millid and milliload, starts a shared result store, two worker
# nodes mounting it, and the consistent-hash router in front, then checks
# the cluster-wide caching guarantee: an identical request POSTed directly
# to both worker nodes simulates exactly once — the second node serves it
# from the store tier (sims_run 0, cache_shared_hits 1 on /metrics) with a
# byte-identical result body. The router must relay both catalogs (GET
# /v1/experiments and /v1/workloads) byte-identical to a worker's, route the
# same request to one node, answer its repeat (POST and result GET) from its
# finished-job store with the same bytes and without a worker hop, and
# milliload must emit an SLA report with nonzero latency percentiles
# against the cluster.
# Everything is torn down with SIGTERM.
# Used by `make cluster-demo` and the CI smoke step.
set -euo pipefail

PORT_STORE="${MILLID_STORE_PORT:-18278}"
PORT_A="${MILLID_A_PORT:-18281}"
PORT_B="${MILLID_B_PORT:-18282}"
PORT_RT="${MILLID_ROUTER_PORT:-18277}"
STORE="http://localhost:$PORT_STORE"
NODE_A="http://localhost:$PORT_A"
NODE_B="http://localhost:$PORT_B"
ROUTER="http://localhost:$PORT_RT"

DIR="$(mktemp -d)"
LOG_STORE="$DIR/store.log" LOG_A="$DIR/a.log" LOG_B="$DIR/b.log" LOG_RT="$DIR/router.log"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
  echo "cluster-demo: FAIL: $*" >&2
  for f in "$LOG_STORE" "$LOG_A" "$LOG_B" "$LOG_RT"; do
    [[ -f "$f" ]] && { echo "--- $f ---" >&2; cat "$f" >&2; }
  done
  exit 1
}

wait_healthy() { # url name
  for _ in $(seq 1 100); do
    curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  fail "$2 never became healthy on $1"
}

# metric_value <base> <name>: extract a scalar from the JSON /metrics body.
metric_value() {
  curl -fsS "$1/metrics" | tr -d ' \n' \
    | sed -n "s/.*\"name\":\"$2\",\"kind\":\"[a-z]*\",\"value\":\([0-9.e+-]*\).*/\1/p"
}

go build -o "$DIR/millid" ./cmd/millid
go build -o "$DIR/milliload" ./cmd/milliload

"$DIR/millid" -role=store -addr ":$PORT_STORE" >"$LOG_STORE" 2>&1 &
PIDS+=($!)
wait_healthy "$STORE" "store"

"$DIR/millid" -addr ":$PORT_A" -store "$STORE" >"$LOG_A" 2>&1 &
PID_A=$!; PIDS+=($PID_A)
"$DIR/millid" -addr ":$PORT_B" -store "$STORE" >"$LOG_B" 2>&1 &
PIDS+=($!)
wait_healthy "$NODE_A" "worker A"
wait_healthy "$NODE_B" "worker B"

"$DIR/millid" -role=router -addr ":$PORT_RT" -nodes "$NODE_A,$NODE_B" \
  -health-interval 500ms >"$LOG_RT" 2>&1 &
PIDS+=($!)
wait_healthy "$ROUTER" "router"
echo "cluster-demo: store + 2 workers + router up"

# --- Catalogs: the router relays both of a worker's catalog bodies. ---
for path in /v1/experiments /v1/workloads; do
  curl -fsS -o "$DIR/rt_catalog" "$ROUTER$path" || fail "GET $path through the router failed"
  curl -fsS -o "$DIR/node_catalog" "$NODE_A$path" || fail "GET $path from worker A failed"
  cmp -s "$DIR/rt_catalog" "$DIR/node_catalog" || fail "GET $path through the router differs from worker A's body"
done
echo "cluster-demo: router serves both catalogs byte-identical to a worker's"

# --- Cluster-wide cache hit: POST the identical request to BOTH workers. ---
REQ='{"experiment":"ablation","scale":0.25}'

submit_and_wait() { # base -> echoes job id
  local id status
  id="$(curl -fsS -d "$REQ" "$1/v1/jobs" | sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p')"
  [[ -n "$id" ]] || fail "POST to $1 returned no id"
  for _ in $(seq 1 600); do
    status="$(curl -fsS "$1/v1/jobs/$id" | sed -n 's/.*"status": "\([a-z]*\)".*/\1/p')"
    [[ "$status" == "done" ]] && { echo "$id"; return 0; }
    [[ "$status" == "failed" ]] && fail "job $id failed on $1"
    sleep 0.2
  done
  fail "job $id stuck on $1"
}

ID_A="$(submit_and_wait "$NODE_A")"
ID_B="$(submit_and_wait "$NODE_B")"
[[ "$ID_A" == "$ID_B" ]] || fail "nodes assigned different ids: $ID_A vs $ID_B"

[[ "$(metric_value "$NODE_A" server.sims_run)" == "1" ]] \
  || fail "worker A should have simulated once (sims_run=$(metric_value "$NODE_A" server.sims_run))"
[[ "$(metric_value "$NODE_B" server.sims_run)" == "0" ]] \
  || fail "worker B re-simulated a store-cached result (sims_run=$(metric_value "$NODE_B" server.sims_run))"
[[ "$(metric_value "$NODE_B" server.cache_shared_hits)" == "1" ]] \
  || fail "worker B did not hit the store tier (cache_shared_hits=$(metric_value "$NODE_B" server.cache_shared_hits))"

R_A="$(curl -fsS "$NODE_A/v1/jobs/$ID_A/result")"
R_B="$(curl -fsS "$NODE_B/v1/jobs/$ID_B/result")"
[[ "$R_A" == "$R_B" ]] || fail "result bodies differ across nodes"
echo "cluster-demo: store-tier hit verified (1 simulation, byte-identical bodies on both nodes)"

# --- Router consistency: the same request through the front tier dedups. ---
curl -fsS -o "$DIR/rt_post" -d "$REQ" "$ROUTER/v1/jobs"
RT_ID="$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' "$DIR/rt_post")"
[[ "$RT_ID" == "$ID_A" ]] || fail "router assigned a different id: $RT_ID vs $ID_A"
curl -fsS -o "$DIR/rt_result" "$ROUTER/v1/jobs/$RT_ID/result"
grep -q 'Barrier ablation' "$DIR/rt_result" || fail "router-proxied result lacks the ablation figure"
echo "cluster-demo: router routes the identical request onto the same job"

# --- Router store: the repeat is answered by the router, not a worker. ---
# The router keeps a done status once it keeps the job's result: this status
# GET reaches the worker, and the router keeps its reply.
curl -fsS -o /dev/null "$ROUTER/v1/jobs/$RT_ID"
HITS_A="$(metric_value "$NODE_A" server.cache_hits)"
HITS_B="$(metric_value "$NODE_B" server.cache_hits)"
CODE="$(curl -sS -o "$DIR/rt_post2" -w '%{http_code}' -d "$REQ" "$ROUTER/v1/jobs")"
[[ "$CODE" == "200" ]] || fail "repeated POST through the router: HTTP $CODE"
cmp -s "$DIR/rt_post" "$DIR/rt_post2" || fail "repeated POST body differs from the router's first reply"
CODE="$(curl -sS -o "$DIR/rt_result2" -w '%{http_code}' "$ROUTER/v1/jobs/$RT_ID/result")"
[[ "$CODE" == "200" ]] || fail "repeated result GET through the router: HTTP $CODE"
cmp -s "$DIR/rt_result" "$DIR/rt_result2" || fail "repeated result body differs from the router's first reply"
RT_HITS="$(metric_value "$ROUTER" router.cache_hits)"
awk -v h="$RT_HITS" 'BEGIN { exit !(h >= 2) }' || fail "router.cache_hits=$RT_HITS after the repeat, want >= 2"
[[ "$(metric_value "$NODE_A" server.cache_hits)" == "$HITS_A" && "$(metric_value "$NODE_B" server.cache_hits)" == "$HITS_B" ]] \
  || fail "the repeat reached a worker (server.cache_hits A $HITS_A -> $(metric_value "$NODE_A" server.cache_hits), B $HITS_B -> $(metric_value "$NODE_B" server.cache_hits))"
echo "cluster-demo: router answered the repeat from its store (router.cache_hits=$RT_HITS, worker hits unchanged)"

# --- milliload smoke: a short SLA report against the cluster. ---
SLA="$("$DIR/milliload" -target "$ROUTER" -metrics "$NODE_A,$NODE_B" \
  -experiment ablation -scale 0.02 -distinct 2 -rates 4 -duration 2s)"
echo "$SLA"
echo "$SLA" | grep -q 'SLA report' || fail "milliload emitted no SLA report"
# Row "4rps": col 2 = offered_rps, 3 = achieved_rps, 4 = p50_ms, 5 = p99_ms.
P50="$(echo "$SLA" | awk '/^4rps/ {print $4}')"
P99="$(echo "$SLA" | awk '/^4rps/ {print $5}')"
echo "$SLA" | awk '/^4rps/ {found=1; exit !($4 > 0 && $5 > 0)} END {if (!found) exit 1}' \
  || fail "SLA report p50/p99 are zero or missing (p50=$P50 p99=$P99)"
echo "cluster-demo: milliload SLA report OK (p50=${P50}ms p99=${P99}ms)"

# --- Teardown: drain a worker, the router notices, SIGTERM everything. ---
kill -TERM "$PID_A"
for _ in $(seq 1 100); do
  kill -0 "$PID_A" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$PID_A" 2>/dev/null && fail "worker A did not exit after SIGTERM"
grep -q "drained cleanly" "$LOG_A" || fail "worker A log lacks the graceful-drain line"

for pid in "${PIDS[@]}"; do
  kill -TERM "$pid" 2>/dev/null || true
done
for pid in "${PIDS[@]}"; do
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
done
PIDS=()

echo "cluster-demo: PASS"
