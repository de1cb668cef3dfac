#!/bin/sh
# health_smoke.sh smoke-tests the fabric health engine on real sockets: a BDN
# and two brokers are scraped by an obscollect whose deadman horizon is three
# 1-second scrape intervals. Killing one broker must raise a firing deadman
# alert on /alerts (and the narada_alerts_firing gauge on /metrics);
# restarting a broker under the same logical identity and telemetry address
# must resolve it.
#
# Uses curl or wget, whichever the host has.
set -eu
SMOKE=health-smoke
. "$(dirname "$0")/lib.sh"

BDN_STREAM="127.0.0.1:17410"
BDN_TELEMETRY="127.0.0.1:17510"
A_TELEMETRY="127.0.0.1:17512"
B_TELEMETRY="127.0.0.1:17513"
COLLECT_HTTP="127.0.0.1:17511"

# flat_alerts fetches /alerts with whitespace stripped, so one alert object's
# fields ("rule":"deadman","node":"health-b","state":"firing") grep as a unit.
flat_alerts() {
    fetch "http://$COLLECT_HTTP/alerts" | tr -d ' \n\t'
}

build broker bdn obscollect

"$BIN/bdn" -bind 127.0.0.1 -name gridservicelocator.org -stream-port 17410 \
    -telemetry-addr "$BDN_TELEMETRY" >"$TMP/bdn.log" 2>&1 &
PIDS="$PIDS $!"
sleep 0.3

"$BIN/broker" -bind 127.0.0.1 -logical health-a -bdn "$BDN_STREAM" \
    -telemetry-addr "$A_TELEMETRY" >"$TMP/broker-a.log" 2>&1 &
PIDS="$PIDS $!"

"$BIN/broker" -bind 127.0.0.1 -logical health-b -bdn "$BDN_STREAM" \
    -telemetry-addr "$B_TELEMETRY" >"$TMP/broker-b.log" 2>&1 &
BPID=$!
PIDS="$PIDS $BPID"

"$BIN/obscollect" -nodes "$BDN_TELEMETRY,$A_TELEMETRY,$B_TELEMETRY" -http "$COLLECT_HTTP" \
    -scrape-interval 1s \
    >"$TMP/obscollect.log" 2>&1 &
PIDS="$PIDS $!"

wait_for "http://$COLLECT_HTTP/healthz" "collector" "$TMP/obscollect.log"

# Both brokers must be visible on /fabric before the fault is injected.
i=0
while :; do
    FABRIC=$(fetch "http://$COLLECT_HTTP/fabric" | tr -d ' \n\t' || true)
    case "$FABRIC" in
    *'"name":"health-a"'*'"name":"health-b"'* | *'"name":"health-b"'*'"name":"health-a"'*) break ;;
    esac
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "health-smoke: brokers never appeared on /fabric" >&2
        fetch "http://$COLLECT_HTTP/fabric" >&2 || true
        cat "$TMP/obscollect.log" >&2
        exit 1
    fi
    sleep 0.1
done

# No deadman may be firing while everything is alive.
if flat_alerts | grep -q '"rule":"deadman","node":"health-[ab]","state":"firing"'; then
    echo "health-smoke: deadman firing before the fault was injected" >&2
    fetch "http://$COLLECT_HTTP/alerts" >&2
    exit 1
fi

# Fault: kill broker b. Deadman horizon is 3 x 1s without a successful
# scrape; allow eval and scheduling slack on top before declaring the
# detector broken.
kill -9 "$BPID"
wait "$BPID" 2>/dev/null || true
KILLED_AT=$(date +%s)
i=0
until flat_alerts | grep -q '"rule":"deadman","node":"health-b","state":"firing"'; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "health-smoke: deadman never fired for the killed broker" >&2
        fetch "http://$COLLECT_HTTP/alerts" >&2 || true
        cat "$TMP/obscollect.log" >&2
        exit 1
    fi
    sleep 0.1
done
FIRE_LATENCY=$(($(date +%s) - KILLED_AT))

# The firing alert is also a gauge on the collector's own exposition.
fetch "http://$COLLECT_HTTP/metrics" | grep 'narada_alerts_firing' | grep -q 'health-b' || {
    echo "health-smoke: narada_alerts_firing gauge missing for health-b" >&2
    fetch "http://$COLLECT_HTTP/metrics" | grep narada_alerts >&2 || true
    exit 1
}

# The survivor must not be implicated.
if flat_alerts | grep -q '"rule":"deadman","node":"health-a","state":"firing"'; then
    echo "health-smoke: deadman fired for the surviving broker" >&2
    fetch "http://$COLLECT_HTTP/alerts" >&2
    exit 1
fi

# Recovery: restart the broker under the same logical identity on the same
# telemetry address; fresh scrapes must resolve the alert (hysteresis: 3
# scrape intervals).
"$BIN/broker" -bind 127.0.0.1 -logical health-b -bdn "$BDN_STREAM" \
    -telemetry-addr "$B_TELEMETRY" >"$TMP/broker-b2.log" 2>&1 &
PIDS="$PIDS $!"
i=0
until flat_alerts | grep -q '"rule":"deadman","node":"health-b","state":"resolved"'; do
    i=$((i + 1))
    if [ "$i" -ge 150 ]; then
        echo "health-smoke: deadman never resolved after restart" >&2
        fetch "http://$COLLECT_HTTP/alerts" >&2 || true
        cat "$TMP/obscollect.log" >&2
        cat "$TMP/broker-b2.log" >&2
        exit 1
    fi
    sleep 0.1
done

echo "health-smoke: ok (deadman fired ~${FIRE_LATENCY}s after kill, gauge exported, survivor clean, resolved after restart)"
