#!/bin/sh
# durability_smoke.sh smoke-tests the replicated BDN registry on real
# sockets: three BDNs form a primary/standby cluster (-data-dir, -peers,
# -lease), two supervised brokers register with all of them, and the primary
# is killed with SIGKILL. A standby must promote itself, still list every
# broker, and keep answering discovery — with ZERO broker re-registrations:
# the brokers' narada_broker_reconnects_total metric for kind="bdn" must stay
# at zero, because the survivors never dropped their registration links and
# every broker registered with every member.
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
LEASE="1s"

# role reports a member's narada_replica_role gauge (1 = primary), empty on
# fetch failure.
role() { # role <http-addr>
    fetch "http://$1/metrics" 2>/dev/null | awk '/^narada_replica_role/ {print $NF}' || true
}

# wait_primary polls the given members until one reports role 1; prints the
# winner's http addr.
wait_primary() { # wait_primary <what> <http-addr>...
    what="$1"
    shift
    i=0
    while :; do
        for m in "$@"; do
            if [ "$(role "$m")" = "1" ]; then
                echo "$m"
                return 0
            fi
        done
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "durability-smoke: no primary elected $what" >&2
            for m in "$@"; do
                echo "--- $m:" >&2
                fetch "http://$m/metrics" | grep narada_replica >&2 || true
            done
            exit 1
        fi
        sleep 0.1
    done
}

# wait_brokers polls a BDN's broker-count gauge until it reaches the want.
wait_brokers() { # wait_brokers <http-addr> <want> <what>
    i=0
    until fetch "http://$1/metrics" | grep '^narada_bdn_brokers' | grep -q " $2\$"; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "durability-smoke: $1 never reached $2 registrations $3" >&2
            fetch "http://$1/metrics" | grep narada_bdn >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}

start_bdn() { # start_bdn <name> <stream> <udp> <http> <replica> <peers> <datadir> <logfile>
    "$BIN/bdn" -bind 127.0.0.1 -name "$1" -stream-port "$2" -udp-port "$3" \
        -telemetry-addr "127.0.0.1:$4" -replica-port "$5" -peers "$6" \
        -data-dir "$7" -lease "$LEASE" >"$8" 2>&1 &
    PIDS="$PIDS $!"
    eval "BDN_PID_$4=$!"
}

build broker bdn discover

start_bdn gridservicelocator.org 17620 17621 17622 17623 "127.0.0.1:17633,127.0.0.1:17643" "$TMP/data/org" "$TMP/bdn1.log"
start_bdn gridservicelocator.com 17630 17631 17632 17633 "127.0.0.1:17623,127.0.0.1:17643" "$TMP/data/com" "$TMP/bdn2.log"
start_bdn gridservicelocator.net 17640 17641 17642 17643 "127.0.0.1:17623,127.0.0.1:17633" "$TMP/data/net" "$TMP/bdn3.log"
wait_for "http://$BDN1_HTTP/healthz" "bdn1" "$TMP/bdn1.log"
wait_for "http://$BDN2_HTTP/healthz" "bdn2" "$TMP/bdn2.log"
wait_for "http://$BDN3_HTTP/healthz" "bdn3" "$TMP/bdn3.log"

PRIMARY_HTTP="$(wait_primary "at bootstrap" "$BDN1_HTTP" "$BDN2_HTTP" "$BDN3_HTTP")"
echo "durability-smoke: primary elected ($PRIMARY_HTTP)"

"$BIN/broker" -bind 127.0.0.1 -logical dur-a -bdn "$BDN1_STREAM,$BDN2_STREAM,$BDN3_STREAM" \
    -supervise -heartbeat 500ms -telemetry-addr "$BROKER1_HTTP" >"$TMP/broker1.log" 2>&1 &
PIDS="$PIDS $!"
"$BIN/broker" -bind 127.0.0.1 -logical dur-b -bdn "$BDN1_STREAM,$BDN2_STREAM,$BDN3_STREAM" \
    -supervise -heartbeat 500ms -telemetry-addr "$BROKER2_HTTP" >"$TMP/broker2.log" 2>&1 &
PIDS="$PIDS $!"
wait_for "http://$BROKER1_HTTP/healthz" "broker dur-a" "$TMP/broker1.log"
wait_for "http://$BROKER2_HTTP/healthz" "broker dur-b" "$TMP/broker2.log"
wait_brokers "$BDN1_HTTP" 2 "at bootstrap"
wait_brokers "$BDN2_HTTP" 2 "at bootstrap"
wait_brokers "$BDN3_HTTP" 2 "at bootstrap"

# Baseline: discovery over the healthy cluster answers.
"$BIN/discover" -bind 127.0.0.1 -bdn "$BDN1_STREAM,$BDN2_STREAM,$BDN3_STREAM" \
    -window 2s -name dur-req1 >"$TMP/discover1.log" 2>&1 || {
    echo "durability-smoke: initial discovery failed" >&2
    cat "$TMP/discover1.log" >&2
    exit 1
}
grep -q 'selected broker: dur-' "$TMP/discover1.log" || {
    echo "durability-smoke: initial discovery selected nothing" >&2
    cat "$TMP/discover1.log" >&2
    exit 1
}

# Fault: SIGKILL the primary — no goodbye, no final snapshot, exactly like a
# crashed discovery-node process.
eval "PRIMARY_PID=\$BDN_PID_$(echo "$PRIMARY_HTTP" | sed 's/.*://')"
kill -9 "$PRIMARY_PID"
wait "$PRIMARY_PID" 2>/dev/null || true
echo "durability-smoke: primary killed (pid $PRIMARY_PID)"

SURVIVORS=""
SURVIVOR_STREAMS=""
for pair in "$BDN1_HTTP=$BDN1_STREAM" "$BDN2_HTTP=$BDN2_STREAM" "$BDN3_HTTP=$BDN3_STREAM"; do
    http="${pair%%=*}"
    stream="${pair#*=}"
    if [ "$http" != "$PRIMARY_HTTP" ]; then
        SURVIVORS="$SURVIVORS $http"
        SURVIVOR_STREAMS="$SURVIVOR_STREAMS,$stream"
    fi
done
SURVIVOR_STREAMS="${SURVIVOR_STREAMS#,}"

# Recovery: a standby claims the lease and promotes itself.
# shellcheck disable=SC2086
NEW_PRIMARY="$(wait_primary "after the kill" $SURVIVORS)"
echo "durability-smoke: standby promoted ($NEW_PRIMARY)"

# The promoted member lists every broker without anyone re-registering.
wait_brokers "$NEW_PRIMARY" 2 "after the failover"

# Discovery against the survivors still answers.
"$BIN/discover" -bind 127.0.0.1 -bdn "$SURVIVOR_STREAMS" \
    -window 2s -name dur-req2 >"$TMP/discover2.log" 2>&1 || {
    echo "durability-smoke: post-failover discovery failed" >&2
    cat "$TMP/discover2.log" >&2
    exit 1
}
grep -q 'selected broker: dur-' "$TMP/discover2.log" || {
    echo "durability-smoke: post-failover discovery selected nothing" >&2
    cat "$TMP/discover2.log" >&2
    exit 1
}

# The whole point: zero broker re-registrations. The reconnects counter for
# kind="bdn" counts successful registration REDIALS; the surviving BDNs
# never dropped a session, so it must still read 0 on both brokers.
for b in "$BROKER1_HTTP" "$BROKER2_HTTP"; do
    if fetch "http://$b/metrics" | grep 'narada_broker_reconnects_total' | grep 'kind="bdn"' | grep -qv ' 0$'; then
        echo "durability-smoke: broker $b re-registered after the failover" >&2
        fetch "http://$b/metrics" | grep narada_broker_reconnect >&2 || true
        exit 1
    fi
done

echo "durability-smoke: ok (primary killed, standby promoted with full table, discovery healthy, zero re-registrations)"
