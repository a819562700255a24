#!/usr/bin/env bash
# End-to-end smoke test of the specinferd serving daemon: boot it, wait
# for health, run one generation, scrape metrics, then SIGTERM and
# require a clean (exit 0) graceful drain; then the same for a daemon
# with the speculation policy, for one engine with the prefix cache and
# for a two-replica fleet. CI runs this after the unit gate; `make
# servesmoke` runs it locally.
#
# Any failure (including ones surfaced by set -e mid-pipeline) lands in
# the EXIT trap, which kills a still-running daemon so a broken run can
# never leave an orphaned specinferd holding the port.
set -euo pipefail

ADDR="${SPECINFERD_ADDR:-127.0.0.1:18080}"
BIN="${SPECINFERD_BIN:-./specinferd.smoke}"
PID=""

cleanup() {
    if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
        kill "$PID" 2>/dev/null || true
        wait "$PID" 2>/dev/null || true
    fi
    rm -f "$BIN"
}
trap cleanup EXIT

# wait_healthy waits (up to ~10s) for the daemon named $1 to come up.
wait_healthy() {
    for _ in $(seq 1 40); do
        if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.25
    done
    echo "servesmoke: $1 never became healthy" >&2
    exit 1
}

# drain sends SIGTERM to the daemon named $1 and requires a clean exit.
drain() {
    echo "servesmoke: $1 SIGTERM drain"
    kill -TERM "$PID"
    if wait "$PID"; then
        echo "servesmoke: $1 clean drain (exit 0)"
        PID=""
    else
        code=$?
        echo "servesmoke: $1 exited $code after SIGTERM" >&2
        PID=""
        exit 1
    fi
}

go build -o "$BIN" ./cmd/specinferd

"$BIN" -addr "$ADDR" -batch 2 -queue 8 &
PID=$!
wait_healthy daemon

echo "servesmoke: generate"
out=$(curl -sf -X POST "http://$ADDR/v1/generate" \
    -d '{"prompt":[5,9,2],"max_new_tokens":12}')
echo "$out"
case "$out" in
*'"tokens":['*) ;;
*)
    echo "servesmoke: generate response missing tokens" >&2
    exit 1
    ;;
esac

echo "servesmoke: metricz"
metrics=$(curl -sf "http://$ADDR/metricz")
echo "$metrics"
case "$metrics" in
*'"completed":1'*) ;;
*)
    echo "servesmoke: metricz did not record the completed request" >&2
    exit 1
    ;;
esac
# Tree mode prices its step shapes: the shape block counts the steps.
case "$metrics" in
*'"shape":{"steps":'*) ;;
*)
    echo "servesmoke: metricz missing the shape block" >&2
    exit 1
    ;;
esac

drain daemon

# ---- Policy phase: tree mode with the speculation policy, 2 SSMs ----
# The rule's budget is the ceiling the engine's shape chooser cuts, so
# /metricz carries both the policy block and the shape block.
echo "servesmoke: policy (tree mode, 2 SSMs)"
"$BIN" -addr "$ADDR" -batch 2 -queue 8 -mode tree -policy -ssms 2 &
PID=$!
wait_healthy "policy daemon"
out=$(curl -sf -X POST "http://$ADDR/v1/generate" \
    -d '{"prompt":[5,9,2],"max_new_tokens":12}')
case "$out" in
*'"tokens":['*) ;;
*)
    echo "servesmoke: policy generate missing tokens: $out" >&2
    exit 1
    ;;
esac
metrics=$(curl -sf "http://$ADDR/metricz")
echo "$metrics"
case "$metrics" in
*'"policy":{"latency_iters":'*) ;;
*)
    echo "servesmoke: policy metricz missing the policy block" >&2
    exit 1
    ;;
esac
case "$metrics" in
*'"shape":{"steps":'*) ;;
*)
    echo "servesmoke: policy metricz missing the shape block" >&2
    exit 1
    ;;
esac
drain "policy daemon"

# 72 tokens: one full 64-token KV page plus change, all inside the
# Alpaca vocabulary (192).
prompt=$(seq 1 72 | paste -sd, -)

# generate_twice sends the SAME prompt twice to the daemon named $1.
generate_twice() {
    for i in 1 2; do
        out=$(curl -sf -X POST "http://$ADDR/v1/generate" \
            -d "{\"prompt\":[$prompt],\"max_new_tokens\":4}")
        case "$out" in
        *'"tokens":['*) ;;
        *)
            echo "servesmoke: $1 generate $i missing tokens: $out" >&2
            exit 1
            ;;
        esac
    done
}

# ---- Prefix phase: one engine with the prefix cache ----
# The single-engine daemon serves through server.Config{Engine}, not the
# router: the second request must adopt the first's cached prompt page,
# and no pin may outlive the two requests.
echo "servesmoke: prefix cache (one engine)"
"$BIN" -addr "$ADDR" -batch 2 -queue 8 \
    -substrate transformer -prefix-cache-mb 64 &
PID=$!
wait_healthy "prefix daemon"
generate_twice "prefix daemon"
metrics=$(curl -sf "http://$ADDR/metricz")
echo "$metrics"
hits=$(printf '%s' "$metrics" | grep -o '"hits":[0-9]*' | cut -d: -f2)
if [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
    echo "servesmoke: second same-prompt request missed the prefix cache (hits '$hits')" >&2
    exit 1
fi
case "$metrics" in
*'"pinned":0}'*) ;;
*)
    echo "servesmoke: prefix cache holds a pin after both requests finished" >&2
    exit 1
    ;;
esac
drain "prefix daemon"

# ---- Fleet phase: 2-replica daemon with prefix-affinity routing ----
# Boot a 2-replica fleet on the paged transformer substrate with the
# prefix cache on, send the SAME >64-token prompt twice, and assert the
# /metricz rollup (a) reports both replicas and (b) shows the second
# request hitting the first's prefix KV pages — which can only happen
# if affinity routed both to the same replica (each replica's cache is
# private).
echo "servesmoke: fleet (2 replicas, prefix affinity)"
"$BIN" -addr "$ADDR" -batch 2 -queue 8 -replicas 2 \
    -substrate transformer -prefix-cache-mb 64 &
PID=$!
wait_healthy "fleet daemon"
generate_twice "fleet daemon"

echo "servesmoke: fleet metricz rollup"
fleet=$(curl -sf "http://$ADDR/metricz")
echo "$fleet"
case "$fleet" in
*'"policy":"prefix-affinity"'*) ;;
*)
    echo "servesmoke: fleet metricz missing router block" >&2
    exit 1
    ;;
esac
case "$fleet" in
*'"live":2'*) ;;
*)
    echo "servesmoke: fleet metricz does not report 2 live replicas" >&2
    exit 1
    ;;
esac
case "$fleet" in
*'"shape":{"steps":'*) ;;
*)
    echo "servesmoke: fleet metricz missing the shape rollup" >&2
    exit 1
    ;;
esac
case "$fleet" in
*'"spilled":'*) ;;
*)
    echo "servesmoke: fleet metricz router block missing spilled" >&2
    exit 1
    ;;
esac
# Both requests finished, so the router holds nothing in flight: every
# replica entry reports in_flight 0.
settled=$(printf '%s' "$fleet" | grep -o '"in_flight":0[,}]' | wc -l)
inflight=$(printf '%s' "$fleet" | grep -o '"in_flight":' | wc -l)
if [ "$inflight" -ne 2 ] || [ "$settled" -ne 2 ]; then
    echo "servesmoke: $settled of $inflight replica entries report in_flight 0, want 2 of 2" >&2
    exit 1
fi
# Nor does any prefix cache hold a pin: no request, host or guest, is
# left holding cached pages. The fleet aggregate and both replica
# entries carry a prefix_cache block, each ending in "pinned".
unpinned=$(printf '%s' "$fleet" | grep -o '"pinned":0[,}]' | wc -l)
pinned=$(printf '%s' "$fleet" | grep -o '"pinned":' | wc -l)
if [ "$pinned" -ne 3 ] || [ "$unpinned" -ne 3 ]; then
    echo "servesmoke: $unpinned of $pinned prefix_cache blocks report pinned 0, want 3 of 3 (fleet and 2 replicas)" >&2
    exit 1
fi
live_entries=$(printf '%s' "$fleet" | grep -o '"state":"live"' | wc -l)
if [ "$live_entries" -lt 2 ]; then
    echo "servesmoke: per-replica array reports $live_entries live entries, want 2" >&2
    exit 1
fi
# Both same-prompt requests on one replica: the fleet aggregate AND
# that replica's entry each report submitted=2, so the string appears
# at least twice. A split (1+1) would show it at most once.
stuck=$(printf '%s' "$fleet" | grep -o '"submitted":2' | wc -l)
if [ "$stuck" -lt 2 ]; then
    echo "servesmoke: same-prefix requests did not land on one replica" >&2
    exit 1
fi
# The FIRST "hits" in the document is the fleet-wide aggregate (the
# per-replica entries, which follow it, include the idle replica's
# zero-hit cache).
agg_hits=$(printf '%s' "$fleet" | grep -o '"hits":[0-9]*' | head -1 | cut -d: -f2)
if [ -z "$agg_hits" ]; then
    echo "servesmoke: fleet metricz missing prefix_cache block" >&2
    exit 1
fi
if [ "$agg_hits" -lt 1 ]; then
    echo "servesmoke: second shared-prefix request missed the prefix cache" >&2
    exit 1
fi

drain "fleet daemon"
