#!/bin/sh
# flows_smoke.sh smoke-tests per-topic flow accounting and message-path
# sampling on real processes: an obscollect scraping a broker that runs the
# publish sampler, and the open-loop load generator driving traffic.
# Passing means:
#
#  1. The collector's /flows endpoint lists the loadgen topic in the
#     fabric-wide merge with non-zero published and delivered counts.
#  2. At least one message-kind trace assembled on /traces — the sampler's
#     decision-at-publish stamp travelled broker -> collector.
#
# Uses curl or wget, whichever the host has.
set -eu
SMOKE=flows-smoke
. "$(dirname "$0")/lib.sh"

BROKER_STREAM=17420
BROKER_TELEMETRY="127.0.0.1:17421"
COLLECT_HTTP="127.0.0.1:17422"
TOPIC="flows/smoke/topic"

build broker obscollect loadgen

"$BIN/obscollect" -nodes "$BROKER_TELEMETRY" -http "$COLLECT_HTTP" \
    >"$TMP/obscollect.log" 2>&1 &
PIDS="$PIDS $!"

wait_for "http://$COLLECT_HTTP/healthz" "collector" "$TMP/obscollect.log" "$TMP/chealthz"

# Sampling compiled in AND enabled: every 8th origin publish gets a message
# trace, capped per topic so the storm cannot flood the collector.
"$BIN/broker" -bind 127.0.0.1 -logical flows-broker -stream-port "$BROKER_STREAM" \
    -telemetry-addr "$BROKER_TELEMETRY" -sample-every 8 -sample-topic-persec 50 \
    >"$TMP/broker.log" 2>&1 &
PIDS="$PIDS $!"
sleep 0.3

"$BIN/loadgen" -addr "127.0.0.1:$BROKER_STREAM" -rates 2000 -duration 2s \
    -topic "$TOPIC" -subs 2 -warmup 200ms -out "$TMP/loadgen.json" \
    >"$TMP/loadgen.log" 2>&1 || {
    echo "flows-smoke: loadgen failed" >&2
    cat "$TMP/loadgen.log" >&2
    cat "$TMP/broker.log" >&2
    exit 1
}

# Every scrape carries the broker's flow table; poll until the topic shows up
# fabric-wide with real delivered volume.
i=0
while :; do
    fetch "http://$COLLECT_HTTP/flows" >"$TMP/flows" 2>/dev/null || true
    if grep -q "\"topic\": \"$TOPIC\"" "$TMP/flows"; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "flows-smoke: /flows never listed $TOPIC" >&2
        echo "--- flows:" >&2; cat "$TMP/flows" >&2 || true
        echo "--- broker:" >&2; cat "$TMP/broker.log" >&2
        echo "--- obscollect:" >&2; cat "$TMP/obscollect.log" >&2
        exit 1
    fi
    sleep 0.1
done

ROW=$(grep -A4 "\"topic\": \"$TOPIC\"" "$TMP/flows" | head -5)
PUB=$(printf '%s\n' "$ROW" | sed -n 's/.*"published_msgs": \([0-9]*\).*/\1/p' | head -1)
DEL=$(printf '%s\n' "$ROW" | sed -n 's/.*"delivered_msgs": \([0-9]*\).*/\1/p' | head -1)
if [ -z "$PUB" ] || [ "$PUB" -eq 0 ] || [ -z "$DEL" ] || [ "$DEL" -eq 0 ]; then
    echo "flows-smoke: $TOPIC accounting empty (published=$PUB delivered=$DEL)" >&2
    cat "$TMP/flows" >&2
    exit 1
fi

# The sampler must have produced at least one assembled message trace.
i=0
while :; do
    fetch "http://$COLLECT_HTTP/traces" >"$TMP/traces" 2>/dev/null || true
    if grep -q '"kind": "message"' "$TMP/traces"; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "flows-smoke: no message-kind trace assembled" >&2
        echo "--- traces:" >&2; cat "$TMP/traces" >&2 || true
        echo "--- broker:" >&2; cat "$TMP/broker.log" >&2
        exit 1
    fi
    sleep 0.1
done

TRACES=$(grep -c '"kind": "message"' "$TMP/traces" || true)
echo "flows-smoke: ok ($TOPIC published=$PUB delivered=$DEL on /flows, $TRACES message traces assembled)"
