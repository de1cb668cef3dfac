#!/bin/sh
# durability_smoke.sh smoke-tests a leaderless BDN set on real sockets: three
# durable BDNs (-data-dir) each list the other two in -peers and pull their
# tables, and two supervised brokers register with all of them. One member is
# killed with SIGKILL. Discovery must still answer through the others, which
# still list every broker, with ZERO broker re-registrations: the brokers'
# narada_broker_reconnects_total metric for kind="bdn" must stay at zero,
# because the survivors never dropped their registration links and every
# broker registered with every member. A third broker then registers with the
# survivors only; the killed member restarts and must list it within one
# exchange period, merged from a peer's table.
#
# Uses curl or wget, whichever the host has.
set -eu
SMOKE=durability-smoke
. "$(dirname "$0")/lib.sh"

BDN1_STREAM="127.0.0.1:17620"
BDN1_HTTP="127.0.0.1:17622"
BDN2_STREAM="127.0.0.1:17630"
BDN2_HTTP="127.0.0.1:17632"
BDN3_STREAM="127.0.0.1:17640"
BDN3_HTTP="127.0.0.1:17642"
BROKER1_HTTP="127.0.0.1:17650"
BROKER2_HTTP="127.0.0.1:17651"
BROKER3_HTTP="127.0.0.1:17652"

# listed reports whether a BDN's broker-count gauge reads want.
listed() { # listed <http-addr> <want>
    fetch "http://$1/metrics" 2>/dev/null | grep '^narada_bdn_brokers' | grep -q " $2\$"
}

# wait_brokers polls a BDN's broker-count gauge until it reaches want, for at
# most tries × 0.1 s.
wait_brokers() { # wait_brokers <http-addr> <want> <what> [tries]
    i=0
    until listed "$1" "$2"; do
        i=$((i + 1))
        if [ "$i" -ge "${4:-100}" ]; then
            echo "durability-smoke: $1 did not list $2 brokers $3" >&2
            fetch "http://$1/metrics" | grep narada_bdn >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}

start_bdn() { # start_bdn <n> <name> <stream> <udp> <http> <peers>
    "$BIN/bdn" -bind 127.0.0.1 -name "$2" -stream-port "$3" -udp-port "$4" \
        -telemetry-addr "127.0.0.1:$5" -peers "$6" -data-dir "$TMP/data/$2" \
        >>"$TMP/bdn$1.log" 2>&1 &
    PIDS="$PIDS $!"
    eval "BDN_PID_$1=$!"
}

discover() { # discover <bdn-addrs> <name> <what>
    "$BIN/discover" -bind 127.0.0.1 -bdn "$1" -window 2s -name "$2" >"$TMP/$2.log" 2>&1 &&
        grep -q 'selected broker: dur-' "$TMP/$2.log" || {
        echo "durability-smoke: discovery $3 failed" >&2
        cat "$TMP/$2.log" >&2
        exit 1
    }
}

build broker bdn discover

start_bdn 1 gridservicelocator.org 17620 17621 17622 "$BDN2_STREAM,$BDN3_STREAM"
start_bdn 2 gridservicelocator.com 17630 17631 17632 "$BDN1_STREAM,$BDN3_STREAM"
start_bdn 3 gridservicelocator.net 17640 17641 17642 "$BDN1_STREAM,$BDN2_STREAM"
wait_for "http://$BDN1_HTTP/healthz" "bdn1" "$TMP/bdn1.log"
wait_for "http://$BDN2_HTTP/healthz" "bdn2" "$TMP/bdn2.log"
wait_for "http://$BDN3_HTTP/healthz" "bdn3" "$TMP/bdn3.log"

"$BIN/broker" -bind 127.0.0.1 -logical dur-a -bdn "$BDN1_STREAM,$BDN2_STREAM,$BDN3_STREAM" \
    -supervise -heartbeat 500ms -telemetry-addr "$BROKER1_HTTP" >"$TMP/broker1.log" 2>&1 &
PIDS="$PIDS $!"
"$BIN/broker" -bind 127.0.0.1 -logical dur-b -bdn "$BDN1_STREAM,$BDN2_STREAM,$BDN3_STREAM" \
    -supervise -heartbeat 500ms -telemetry-addr "$BROKER2_HTTP" >"$TMP/broker2.log" 2>&1 &
PIDS="$PIDS $!"
wait_for "http://$BROKER1_HTTP/healthz" "broker dur-a" "$TMP/broker1.log"
wait_for "http://$BROKER2_HTTP/healthz" "broker dur-b" "$TMP/broker2.log"
for m in "$BDN1_HTTP" "$BDN2_HTTP" "$BDN3_HTTP"; do
    wait_brokers "$m" 2 "at bootstrap"
done
discover "$BDN1_STREAM,$BDN2_STREAM,$BDN3_STREAM" dur-req1 "over the whole set"

# Fault: SIGKILL a member — no goodbye, no final snapshot, exactly like a
# crashed discovery-node process.
kill -9 "$BDN_PID_1"
wait "$BDN_PID_1" 2>/dev/null || true
echo "durability-smoke: gridservicelocator.org killed (pid $BDN_PID_1)"

# The survivors list every broker and answer discovery, with nobody
# re-registering.
wait_brokers "$BDN2_HTTP" 2 "after the kill"
wait_brokers "$BDN3_HTTP" 2 "after the kill"
discover "$BDN2_STREAM,$BDN3_STREAM" dur-req2 "through the survivors"
for b in "$BROKER1_HTTP" "$BROKER2_HTTP"; do
    if fetch "http://$b/metrics" | grep 'narada_broker_reconnects_total' | grep 'kind="bdn"' | grep -qv ' 0$'; then
        echo "durability-smoke: broker $b re-registered after the kill" >&2
        fetch "http://$b/metrics" | grep narada_broker_reconnect >&2 || true
        exit 1
    fi
done

# A broker registers while the member is down, with the survivors only.
"$BIN/broker" -bind 127.0.0.1 -logical dur-c -bdn "$BDN2_STREAM,$BDN3_STREAM" \
    -supervise -telemetry-addr "$BROKER3_HTTP" >"$TMP/broker3.log" 2>&1 &
PIDS="$PIDS $!"
wait_for "http://$BROKER3_HTTP/healthz" "broker dur-c" "$TMP/broker3.log"
wait_brokers "$BDN2_HTTP" 3 "after dur-c registered"
wait_brokers "$BDN3_HTTP" 3 "after dur-c registered"

# The member restarts over its data directory: it recovers dur-a and dur-b
# from disk and must pull dur-c within the 2 s exchange period (+1 s slack).
start_bdn 1 gridservicelocator.org 17620 17621 17622 "$BDN2_STREAM,$BDN3_STREAM"
wait_for "http://$BDN1_HTTP/healthz" "restarted bdn1" "$TMP/bdn1.log"
wait_brokers "$BDN1_HTTP" 3 "within an exchange period of its restart" 30
if ! fetch "http://$BDN1_HTTP/metrics" | grep 'narada_bdn_advertisements_total' | grep 'outcome="merged"' | grep -qv ' 0$'; then
    echo "durability-smoke: the restarted member lists dur-c without having merged it" >&2
    fetch "http://$BDN1_HTTP/metrics" | grep narada_bdn_advertisements >&2 || true
    exit 1
fi

echo "durability-smoke: ok (member killed, survivors full and answering, zero re-registrations, restarted member pulled what it missed)"
