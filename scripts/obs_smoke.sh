#!/bin/sh
# obs_smoke.sh smoke-tests the observability plane on real sockets, twice
# over:
#
#  1. Node telemetry: one broker with -telemetry-addr must serve /healthz,
#     >= 12 narada_ metric families on /metrics, and /debug/traces.
#  2. Fabric observability: a BDN + broker (each serving -telemetry-addr)
#     and an obscollect scraping them (-nodes) and running the synthetic
#     prober; one probe trace must assemble end to end — spans from the
#     prober, the BDN and the broker on the collector's /traces/{id} — and
#     /fabric must list all three nodes.
#
# Uses curl or wget, whichever the host has.
set -eu
SMOKE=obs-smoke
. "$(dirname "$0")/lib.sh"

ADDR="127.0.0.1:18081"
BDN_STREAM="127.0.0.1:17010"
BDN_TELEMETRY="127.0.0.1:17312"
BROKER_TELEMETRY="127.0.0.1:17313"
COLLECT_HTTP="127.0.0.1:17311"

build broker bdn obscollect

# --- Part 1: node telemetry endpoint -------------------------------------

"$BIN/broker" -bind 127.0.0.1 -logical smoke-broker -telemetry-addr "$ADDR" \
    >"$TMP/broker.log" 2>&1 &
PIDS="$PIDS $!"

wait_for "http://$ADDR/healthz" "telemetry endpoint" "$TMP/broker.log" "$TMP/healthz"

grep -q '"status":"ok"' "$TMP/healthz" || {
    echo "obs-smoke: /healthz not ok: $(cat "$TMP/healthz")" >&2
    exit 1
}

fetch "http://$ADDR/metrics" >"$TMP/metrics"
FAMILIES=$(grep -c '^# TYPE narada_' "$TMP/metrics" || true)
if [ "$FAMILIES" -lt 12 ]; then
    echo "obs-smoke: only $FAMILIES narada_ families on /metrics, want >= 12" >&2
    grep '^# TYPE' "$TMP/metrics" >&2 || true
    exit 1
fi

fetch "http://$ADDR/debug/traces" >/dev/null

# --- Part 2: collector + prober end to end -------------------------------

"$BIN/bdn" -bind 127.0.0.1 -name gridservicelocator.org -stream-port 17010 \
    -telemetry-addr "$BDN_TELEMETRY" >"$TMP/bdn.log" 2>&1 &
PIDS="$PIDS $!"
sleep 0.3

"$BIN/broker" -bind 127.0.0.1 -logical fabric-broker -bdn "$BDN_STREAM" \
    -telemetry-addr "$BROKER_TELEMETRY" >"$TMP/fabric-broker.log" 2>&1 &
PIDS="$PIDS $!"
sleep 0.3

"$BIN/obscollect" -nodes "$BDN_TELEMETRY,$BROKER_TELEMETRY" -http "$COLLECT_HTTP" \
    -probe-interval 1s -probe-bdn "$BDN_STREAM" \
    >"$TMP/obscollect.log" 2>&1 &
PIDS="$PIDS $!"

wait_for "http://$COLLECT_HTTP/healthz" "collector" "$TMP/obscollect.log" "$TMP/chealthz"

# Wait for one probe trace to assemble with spans from all three nodes.
i=0
TRACE_ID=""
while :; do
    fetch "http://$COLLECT_HTTP/traces" >"$TMP/traces" 2>/dev/null || true
    TRACE_ID=$(sed -n 's/.*"id": "\([0-9a-f-]\{36\}\)".*/\1/p' "$TMP/traces" | head -1)
    if [ -n "$TRACE_ID" ]; then
        fetch "http://$COLLECT_HTTP/traces/$TRACE_ID" >"$TMP/trace" 2>/dev/null || true
        if grep -q '"node": "obsprobe"' "$TMP/trace" &&
            grep -q '"node": "gridservicelocator.org"' "$TMP/trace" &&
            grep -q '"node": "fabric-broker"' "$TMP/trace"; then
            break
        fi
    fi
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "obs-smoke: no probe trace assembled end to end" >&2
        echo "--- traces:" >&2; cat "$TMP/traces" >&2 || true
        echo "--- trace $TRACE_ID:" >&2; cat "$TMP/trace" >&2 || true
        echo "--- obscollect:" >&2; cat "$TMP/obscollect.log" >&2
        echo "--- bdn:" >&2; cat "$TMP/bdn.log" >&2
        echo "--- broker:" >&2; cat "$TMP/fabric-broker.log" >&2
        exit 1
    fi
    sleep 0.1
done

fetch "http://$COLLECT_HTTP/fabric" >"$TMP/fabric"
for node in obsprobe gridservicelocator.org fabric-broker; do
    grep -q "\"name\": \"$node\"" "$TMP/fabric" || {
        echo "obs-smoke: /fabric missing node $node" >&2
        cat "$TMP/fabric" >&2
        exit 1
    }
done

# The prober keeps a private registry the collector scrapes in process like
# any node's — poll for the first scrape, then insist the series appears
# exactly once (scraping a collector-shared registry back through ingest
# would duplicate it).
i=0
while :; do
    fetch "http://$COLLECT_HTTP/metrics" >"$TMP/fedmetrics"
    N=$(grep -c 'narada_probe_runs_total{node="obsprobe",outcome="ok"}' "$TMP/fedmetrics" || true)
    [ "$N" -eq 1 ] && break
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "obs-smoke: probe SLI appears $N times on federated /metrics, want exactly 1" >&2
        grep 'narada_probe' "$TMP/fedmetrics" >&2 || true
        exit 1
    fi
    sleep 0.1
done

# Probe SLIs must also land in the retention store and serve on /query. The
# first scrape only establishes the counter baseline; deltas (points) appear
# once a later scrape shows the counter moved, so poll a few more intervals.
i=0
while :; do
    QUERY=$(fetch "http://$COLLECT_HTTP/query?metric=narada_probe_runs_total&node=obsprobe&res=1s&since=60s" | tr -d ' \n\t')
    case "$QUERY" in
    *'"kind":"counter"'*'"points":[{'*) break ;;
    esac
    i=$((i + 1))
    if [ "$i" -ge 80 ]; then
        echo "obs-smoke: /query has no retained probe series: $QUERY" >&2
        exit 1
    fi
    sleep 0.1
done

echo "obs-smoke: ok (/healthz ok, $FAMILIES metric families, probe trace $TRACE_ID assembled across obsprobe+bdn+broker, /fabric and federated /metrics serving)"
