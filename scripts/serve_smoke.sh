#!/bin/sh
# serve_smoke.sh — boot flserver, drive it with flload, verify the SLO and
# the drain invariants, then tear down: a short burst with chaos requests
# mixed in, a p99 bound, a clean drain with zero dropped requests, then a
# reboot from the snapshot that survives kill -9. perfbench measures
# serving (bash perfbench/run.sh --workload serve-testbed).
#
# Exits non-zero on any failed invariant. Requires only the go toolchain.
set -eu

GO=${GO:-go}
ADDR=127.0.0.1:8701
BASE=http://$ADDR
TMP=$(mktemp -d)
BIN=$TMP/bin
SNAP=$TMP/flserver.snap.json
AUDITS=$TMP/audits
SERVER_LOG=$TMP/flserver.log

mkdir -p "$BIN"
$GO build -o "$BIN/flserver" ./cmd/flserver
$GO build -o "$BIN/flload" ./cmd/flload

cleanup() {
    [ -n "${SERVER_PID:-}" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

"$BIN/flserver" -addr "$ADDR" -snapshot "$SNAP" -audit-dir "$AUDITS" \
    -queue-cap 4096 -request-timeout 2s >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!

# Wait for the daemon to come up.
i=0
until curl -sf "$BASE/v1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ $i -gt 50 ]; then
        echo "serve-smoke: flserver did not come up" >&2
        cat "$SERVER_LOG" >&2
        exit 1
    fi
    sleep 0.1
done

"$BIN/flload" -addr "$BASE" -tenants 4 -workers 16 -duration 5s \
    -deadline-ms 500 -chaos 0.05 -max-p99-ms 250 \
    -out "$TMP/BENCH_smoke.json"

# Graceful drain: SIGTERM, then verify the daemon reports zero dropped
# in-flight requests and leaves the audit files and snapshot behind.
kill -TERM "$SERVER_PID"
i=0
while kill -0 "$SERVER_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ $i -gt 150 ]; then
        echo "serve-smoke: flserver did not drain within 15s" >&2
        cat "$SERVER_LOG" >&2
        exit 1
    fi
    sleep 0.1
done
SERVER_PID=

grep -q "dropped 0" "$SERVER_LOG" || {
    echo "serve-smoke: drain dropped in-flight requests" >&2
    cat "$SERVER_LOG" >&2
    exit 1
}
[ -f "$SNAP" ] || { echo "serve-smoke: no registry snapshot written" >&2; exit 1; }
ls "$AUDITS"/*.audit >/dev/null 2>&1 || {
    echo "serve-smoke: no audit files flushed on drain" >&2
    exit 1
}

# Chaos: reboot from the snapshot, kill -9 mid-load, and verify the
# snapshot written by the clean drain still restores intact — the atomic
# write pattern means a hard kill can never leave a partial registry.
cp "$SNAP" "$SNAP.golden"
"$BIN/flserver" -addr "$ADDR" -snapshot "$SNAP" -audit-dir "$AUDITS" \
    -queue-cap 4096 >"$SERVER_LOG.2" 2>&1 &
SERVER_PID=$!
i=0
until curl -sf "$BASE/v1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ $i -gt 50 ] && { echo "serve-smoke: restart from snapshot failed" >&2; cat "$SERVER_LOG.2" >&2; exit 1; }
    sleep 0.1
done
"$BIN/flload" -addr "$BASE" -tenants 2 -workers 8 -duration 10s \
    -out "$TMP/BENCH_chaos.json" >/dev/null 2>&1 &
LOAD_PID=$!
sleep 1
kill -9 "$SERVER_PID"
SERVER_PID=
wait "$LOAD_PID" 2>/dev/null || true
cmp -s "$SNAP" "$SNAP.golden" || {
    echo "serve-smoke: kill -9 corrupted the registry snapshot" >&2
    exit 1
}
"$BIN/flserver" -addr "$ADDR" -snapshot "$SNAP" >"$SERVER_LOG.3" 2>&1 &
SERVER_PID=$!
i=0
until curl -sf "$BASE/v1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ $i -gt 50 ] && { echo "serve-smoke: reboot after kill -9 failed" >&2; cat "$SERVER_LOG.3" >&2; exit 1; }
    sleep 0.1
done
curl -sf "$BASE/v1/stats" | grep -q '"load-0"' || {
    echo "serve-smoke: tenants not restored after kill -9 reboot" >&2
    exit 1
}
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

echo "serve-smoke: OK (clean drain, snapshot + audits written, kill -9 survived)"
