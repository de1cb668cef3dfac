#!/bin/sh
# chaos_smoke.sh smoke-tests the self-healing fabric on real sockets: a BDN
# and one supervised broker (-supervise, heartbeats, periodic advertisement
# refresh with a TTL). The BDN is killed and restarted on the same port; the
# broker's supervision must redial the registration link and re-advertise, so
# the restarted (empty) BDN lists the broker again and a fresh discovery
# still selects it — with the healing visible on the broker's own
# narada_broker_reconnects_total metric.
#
# Uses curl or wget, whichever the host has.
set -eu
SMOKE=chaos-smoke
. "$(dirname "$0")/lib.sh"

BDN_STREAM="127.0.0.1:17610"
BDN_HTTP="127.0.0.1:17612"
BROKER_HTTP="127.0.0.1:17613"

# wait_registered polls the BDN's broker-count gauge until it reports at
# least one stored registration.
wait_registered() { # wait_registered <what> <logfile>
    i=0
    until fetch "http://$BDN_HTTP/metrics" | grep '^narada_bdn_brokers' | grep -qv ' 0$'; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "chaos-smoke: broker never registered $1" >&2
            fetch "http://$BDN_HTTP/metrics" | grep narada_bdn >&2 || true
            cat "$2" >&2
            exit 1
        fi
        sleep 0.1
    done
}

start_bdn() { # start_bdn <logfile>
    "$BIN/bdn" -bind 127.0.0.1 -name gridservicelocator.org -stream-port 17610 \
        -udp-port 17611 -telemetry-addr "$BDN_HTTP" -sweep-every 500ms \
        >"$1" 2>&1 &
    BDN_PID=$!
    PIDS="$PIDS $BDN_PID"
    wait_for "http://$BDN_HTTP/healthz" "bdn" "$1"
}

build broker bdn discover

start_bdn "$TMP/bdn.log"

"$BIN/broker" -bind 127.0.0.1 -logical chaos-a -bdn "$BDN_STREAM" \
    -supervise -heartbeat 500ms -advertise-every 1s \
    -telemetry-addr "$BROKER_HTTP" >"$TMP/broker.log" 2>&1 &
PIDS="$PIDS $!"
wait_for "http://$BROKER_HTTP/healthz" "broker" "$TMP/broker.log"
wait_registered "at the initial bdn" "$TMP/broker.log"

# Baseline: discovery over the healthy fabric selects the broker.
"$BIN/discover" -bind 127.0.0.1 -bdn "$BDN_STREAM" -window 2s -name chaos-req >"$TMP/discover1.log" 2>&1 || {
    echo "chaos-smoke: initial discovery failed" >&2
    cat "$TMP/discover1.log" >&2
    exit 1
}
grep -q 'selected broker: chaos-a' "$TMP/discover1.log" || {
    echo "chaos-smoke: initial discovery did not select chaos-a" >&2
    cat "$TMP/discover1.log" >&2
    exit 1
}

# Fault: the BDN dies abruptly, taking every stored registration with it.
kill -9 "$BDN_PID"
wait "$BDN_PID" 2>/dev/null || true
sleep 1

# Recovery: a fresh BDN on the same port starts EMPTY; only the broker's
# supervised registration link can repopulate it.
start_bdn "$TMP/bdn2.log"
wait_registered "after the bdn restart" "$TMP/broker.log"

# The healing must have been recorded by the broker's supervision metrics.
fetch "http://$BROKER_HTTP/metrics" | grep 'narada_broker_reconnects_total' | grep 'kind="bdn"' | grep -qv ' 0$' || {
    echo "chaos-smoke: broker shows no bdn reconnect after the restart" >&2
    fetch "http://$BROKER_HTTP/metrics" | grep narada_broker_reconnect >&2 || true
    exit 1
}

# A fresh discovery against the restarted BDN selects the re-registered broker.
"$BIN/discover" -bind 127.0.0.1 -bdn "$BDN_STREAM" -window 2s -name chaos-req2 >"$TMP/discover2.log" 2>&1 || {
    echo "chaos-smoke: post-restart discovery failed" >&2
    cat "$TMP/discover2.log" >&2
    exit 1
}
grep -q 'selected broker: chaos-a' "$TMP/discover2.log" || {
    echo "chaos-smoke: post-restart discovery did not select chaos-a" >&2
    cat "$TMP/discover2.log" >&2
    exit 1
}

echo "chaos-smoke: ok (bdn killed + restarted, broker re-registered itself, discovery healthy)"
