#!/bin/sh
# End-to-end smoke test for the serving layer, in two acts:
#
#  1. single shard: build solverd + loadgen, start the daemon, run a 10 s
#     closed-loop load, and require non-zero throughput.
#  2. scale-out: start two solverd shards plus the solverfront router, push
#     four identical-matrix cg jobs through the router, and require that
#     (a) every one landed on the same shard (fingerprint-stable rendezvous
#     assignment), (b) at least two carry a batch_size in their result,
#     proving the shard's coalescer merged them into one multi-RHS solve, and
#     (c) the 2nd-4th report matrix_source "cache": the shard built the
#     matrix once and served the rest from its operator cache. Then a
#     first-sight lanczos job must report plan_source "autotune" and say what
#     the sweep cost it (timings.plan_ms), and its repeat plan_source "cache"
#     and no timings. Last, inline documents: one with a NaN entry must be
#     refused with a 400 that names the entry (the shard parses it at
#     admission, the router relays the verdict), and two with one header but
#     different values must land on one shard and both finish.
#
# Used manually and as the serving-layer acceptance check; see README.md.
set -eu

PORT="${PORT:-18080}"
DURATION="${DURATION:-10s}"
BIN="$(mktemp -d)"
PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    rm -rf "$BIN"
}
trap cleanup EXIT INT TERM

cd "$(dirname "$0")/.."
go build -o "$BIN/solverd" ./cmd/solverd
go build -o "$BIN/loadgen" ./cmd/loadgen
go build -o "$BIN/solverfront" ./cmd/solverfront

# wait_healthy <url> <what>: poll /healthz for up to ~5 s.
wait_healthy() {
    i=0
    until curl -sf "$1" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "smoke: $2 never became healthy" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# submit <url> <spec>: POST a job, print its id; fails the script when refused.
submit() {
    ID=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$2" "$1/jobs" |
        sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
    if [ -z "$ID" ]; then
        echo "smoke: submit to $1 failed: $2" >&2
        exit 1
    fi
    echo "$ID"
}

# wait_done <url> <id>: poll until the job is done and leave its view in OUT;
# fails the script when the job fails or never finishes.
wait_done() {
    i=0
    while :; do
        OUT=$(curl -s "$1/jobs/$2")
        case "$OUT" in
        *'"state": "done"'*) return ;;
        *'"state": "failed"'* | *'"state": "canceled"'*)
            echo "smoke: job $2 did not succeed: $OUT" >&2
            exit 1
            ;;
        esac
        i=$((i + 1))
        if [ "$i" -ge 300 ]; then
            echo "smoke: job $2 never finished: $OUT" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# --- act 1: single shard under closed-loop load -----------------------------

"$BIN/solverd" -addr "127.0.0.1:$PORT" -workers 2 &
SOLVERD_PID=$!
PIDS="$PIDS $SOLVERD_PID"
wait_healthy "http://127.0.0.1:$PORT/healthz" solverd

# loadgen exits non-zero when no job completes, which fails the script via
# set -e: that is the smoke assertion.
"$BIN/loadgen" -addr "127.0.0.1:$PORT" -c 4 -d "$DURATION" -mix lanczos=1,cg=1

echo "--- /metrics after load ---"
curl -s "http://127.0.0.1:$PORT/metrics"
echo

kill "$SOLVERD_PID"
wait "$SOLVERD_PID" 2>/dev/null || true

# --- act 2: router + two shards ---------------------------------------------

PA=$((PORT + 1))
PB=$((PORT + 2))
PF=$((PORT + 3))

# A wide coalesce window so the four submissions below land in one dispatch
# group; one worker per shard so the first job cannot start before the window
# closes.
"$BIN/solverd" -addr "127.0.0.1:$PA" -workers 1 -coalesce 8 -coalesce-window 500ms &
PIDS="$PIDS $!"
"$BIN/solverd" -addr "127.0.0.1:$PB" -workers 1 -coalesce 8 -coalesce-window 500ms &
PIDS="$PIDS $!"
wait_healthy "http://127.0.0.1:$PA/healthz" "shard alpha"
wait_healthy "http://127.0.0.1:$PB/healthz" "shard beta"

"$BIN/solverfront" -addr "127.0.0.1:$PF" \
    -shards "alpha=http://127.0.0.1:$PA,beta=http://127.0.0.1:$PB" &
PIDS="$PIDS $!"
wait_healthy "http://127.0.0.1:$PF/healthz" solverfront

SPEC='{"solver":"cg","backend":"deepsparse","matrix":{"suite":"inline1","preset":"tiny","seed":7}}'
IDS=""
FRONT="http://127.0.0.1:$PF"
for i in 1 2 3 4; do
    ID=$(submit "$FRONT" "$SPEC")
    IDS="$IDS $ID"
done

# (a) fingerprint-stable assignment: identical matrices must share one shard.
SHARDS=$(for id in $IDS; do echo "${id%%:*}"; done | sort -u)
if [ "$(echo "$SHARDS" | wc -l)" -ne 1 ]; then
    echo "smoke: same-matrix jobs landed on multiple shards:" $SHARDS >&2
    exit 1
fi
echo "smoke: all 4 same-matrix jobs routed to shard '$SHARDS'"

# (b) batch coalescing end to end: wait for every job, count batched results.
# (c) operator cache end to end: only the first job may have built the matrix.
BATCHED=0
N=0
for id in $IDS; do
    N=$((N + 1))
    wait_done "$FRONT" "$id"
    case "$OUT" in
    *'"batch_size"'*) BATCHED=$((BATCHED + 1)) ;;
    esac
    if [ "$N" -ge 2 ]; then
        case "$OUT" in
        *'"matrix_source": "cache"'*) ;;
        *)
            echo "smoke: same-matrix job $N ($id) did not reuse the cached matrix: $OUT" >&2
            exit 1
            ;;
        esac
    fi
done
if [ "$BATCHED" -lt 2 ]; then
    echo "smoke: only $BATCHED/4 results were coalesced (want >= 2)" >&2
    exit 1
fi
echo "smoke: $BATCHED/4 jobs ran inside a coalesced multi-RHS batch"
echo "smoke: jobs 2-4 reported matrix_source \"cache\""

# (d) first sight vs repeat: the first lanczos job on a matrix sweeps for its
# plan and reports what each stage cost; the second finds everything cached.
EIG='{"solver":"lanczos","backend":"deepsparse","matrix":{"suite":"inline1","preset":"tiny","seed":11},"k":4}'
FIRST=$(submit "$FRONT" "$EIG") # an assignment, so that set -e sees a refusal
wait_done "$FRONT" "$FIRST"
case "$OUT" in
*'"plan_source": "autotune"'*'"plan_ms"'*) ;;
*)
    echo "smoke: first-sight job did not report plan_source autotune with timings.plan_ms: $OUT" >&2
    exit 1
    ;;
esac
REPEAT=$(submit "$FRONT" "$EIG")
wait_done "$FRONT" "$REPEAT"
case "$OUT" in
*'"timings"'*)
    echo "smoke: repeat job reported timings, so some stage was not cached: $OUT" >&2
    exit 1
    ;;
*'"plan_source": "cache"'*) ;;
*)
    echo "smoke: repeat job did not report plan_source cache: $OUT" >&2
    exit 1
    ;;
esac
echo "smoke: first-sight job swept (plan_source \"autotune\", timings.plan_ms), its repeat hit the plan cache"

# (e) inline documents: the router places them by header and the shard parses
# them once, at admission. A bad entry is a 400 naming it, no job created.
MMHEAD='%%MatrixMarket matrix coordinate real general\n3 3 7\n'
mmspec() {
    printf '{"solver":"cg","backend":"bsp","matrix":{"mm":"%s%s"}}' "$MMHEAD" "$1"
}
NAN=$(mmspec '1 1 4\n1 2 -1\n2 1 -1\n2 2 nan\n2 3 -1\n3 2 -1\n3 3 4\n')
CODE=$(curl -s -o "$BIN/nan.json" -w '%{http_code}' -X POST -H 'Content-Type: application/json' -d "$NAN" "$FRONT/jobs")
case "$CODE $(cat "$BIN/nan.json")" in
'400 '*'non-finite value'*'MatrixMarket entry (2,2)'*) ;;
*)
    echo "smoke: NaN document: want 400 naming entry (2,2), got $CODE $(cat "$BIN/nan.json")" >&2
    exit 1
    ;;
esac
echo "smoke: NaN inline document refused with 400 naming entry (2,2)"
ONE=$(submit "$FRONT" "$(mmspec '1 1 4\n1 2 -1\n2 1 -1\n2 2 4\n2 3 -1\n3 2 -1\n3 3 4\n')")
TWO=$(submit "$FRONT" "$(mmspec '1 1 5\n1 2 -1\n2 1 -1\n2 2 5\n2 3 -1\n3 2 -1\n3 3 5\n')")
if [ "${ONE%%:*}" != "${TWO%%:*}" ]; then
    echo "smoke: one header, two shards: $ONE and $TWO" >&2
    exit 1
fi
wait_done "$FRONT" "$ONE"
wait_done "$FRONT" "$TWO"
echo "smoke: two inline documents with one header ran on shard '${ONE%%:*}'"

echo "--- router /metrics ---"
curl -s "http://127.0.0.1:$PF/metrics"
echo

echo "smoke: OK"
