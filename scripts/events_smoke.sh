#!/bin/sh
# events_smoke.sh smoke-tests the control-plane event journal on real sockets:
# a BDN and two linked brokers serve their journals to an obscollect. After
# kill -9 on the dialed broker, the survivor's link_down and a burst of failed
# reconnect_attempt events must appear on /events, /topology?at= must answer
# differently for instants before and after the teardown (time travel), and
# the deadman alert for the dead broker must embed its correlated event
# window.
#
# Uses curl or wget, whichever the host has.
set -eu
SMOKE=events-smoke
. "$(dirname "$0")/lib.sh"

BDN_STREAM="127.0.0.1:17610"
BROKER_B_STREAM="127.0.0.1:17621"
BDN_TELEMETRY="127.0.0.1:17712"
BROKER_A_TELEMETRY="127.0.0.1:17713"
BROKER_B_TELEMETRY="127.0.0.1:17714"
COLLECT_HTTP="127.0.0.1:17711"

# flat fetches a JSON endpoint with whitespace stripped so multi-line objects
# grep as a unit.
flat() {
    fetch "$1" | tr -d ' \n\t'
}

build broker bdn obscollect

"$BIN/bdn" -bind 127.0.0.1 -name gridservicelocator.org -stream-port 17610 \
    -telemetry-addr "$BDN_TELEMETRY" >"$TMP/bdn.log" 2>&1 &
PIDS="$PIDS $!"
sleep 0.3

"$BIN/broker" -bind 127.0.0.1 -logical events-b -stream-port 17621 \
    -bdn "$BDN_STREAM" -telemetry-addr "$BROKER_B_TELEMETRY" >"$TMP/broker-b.log" 2>&1 &
BPID=$!
PIDS="$PIDS $BPID"
sleep 0.3

# events-a dials events-b under supervision: after the kill it owns the
# link_down and the reconnect_attempt burst.
"$BIN/broker" -bind 127.0.0.1 -logical events-a -bdn "$BDN_STREAM" \
    -link "$BROKER_B_STREAM" -supervise \
    -telemetry-addr "$BROKER_A_TELEMETRY" >"$TMP/broker-a.log" 2>&1 &
PIDS="$PIDS $!"

"$BIN/obscollect" -nodes "$BDN_TELEMETRY,$BROKER_A_TELEMETRY,$BROKER_B_TELEMETRY" \
    -http "$COLLECT_HTTP" -scrape-interval 1s \
    >"$TMP/obscollect.log" 2>&1 &
PIDS="$PIDS $!"

wait_for "http://$COLLECT_HTTP/healthz" "collector" "$TMP/obscollect.log"

# The fabric's link must be on the live topology before the fault.
i=0
until flat "http://$COLLECT_HTTP/topology" | grep -q '"from":"events-a","to":"events-b"'; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "events-smoke: link events-a -> events-b never reached /topology" >&2
        fetch "http://$COLLECT_HTTP/topology" >&2 || true
        fetch "http://$COLLECT_HTTP/events" >&2 || true
        exit 1
    fi
    sleep 0.1
done

# Pin the pre-kill instant a whole second after the link was seen live:
# `date` truncates to the second, and a link that came up inside the second
# T_PRE names is rightly absent from /topology?at=T_PRE. Then let one more
# scrape pass it, and kill.
sleep 1
T_PRE=$(date -u +%Y-%m-%dT%H:%M:%SZ)
sleep 1.5
kill -9 "$BPID"
wait "$BPID" 2>/dev/null || true

# The survivor's journal must record the teardown and the redial burst.
i=0
until flat "http://$COLLECT_HTTP/events?type=link_down&node=events-a" | grep -q '"subject":"events-b"'; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "events-smoke: no link_down for events-b on /events" >&2
        fetch "http://$COLLECT_HTTP/events" >&2 || true
        cat "$TMP/broker-a.log" >&2
        exit 1
    fi
    sleep 0.1
done
i=0
while :; do
    ATTEMPTS=$(flat "http://$COLLECT_HTTP/events?type=reconnect_attempt" |
        grep -o '"detail":"fail' | wc -l)
    [ "$ATTEMPTS" -ge 2 ] && break
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "events-smoke: no reconnect_attempt burst on /events (saw $ATTEMPTS)" >&2
        fetch "http://$COLLECT_HTTP/events?type=reconnect_attempt" >&2 || true
        exit 1
    fi
    sleep 0.1
done

# Time travel: the link is present at the pre-kill instant and absent now.
# `date` truncates to the whole second, so step past the second the link_down
# landed in (plus the NTP-offset envelope its aligned timestamp carries).
sleep 1.1
T_POST=$(date -u +%Y-%m-%dT%H:%M:%SZ)
if ! flat "http://$COLLECT_HTTP/topology?at=$T_PRE" | grep -q '"from":"events-a","to":"events-b"'; then
    echo "events-smoke: /topology?at=$T_PRE lost the pre-kill link" >&2
    fetch "http://$COLLECT_HTTP/topology?at=$T_PRE" >&2 || true
    exit 1
fi
if flat "http://$COLLECT_HTTP/topology?at=$T_POST" | grep -q '"from":"events-a","to":"events-b"'; then
    echo "events-smoke: /topology?at=$T_POST still shows the torn-down link" >&2
    fetch "http://$COLLECT_HTTP/topology?at=$T_POST" >&2 || true
    exit 1
fi

# The deadman alert for the dead broker must carry its event window: the
# surviving peer's evidence, plus a /events URL selecting the full window.
i=0
until flat "http://$COLLECT_HTTP/alerts" | grep -q '"rule":"deadman","node":"events-b","state":"firing"'; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "events-smoke: deadman never fired for the killed broker" >&2
        fetch "http://$COLLECT_HTTP/alerts" >&2 || true
        exit 1
    fi
    sleep 0.1
done
ALERTS=$(flat "http://$COLLECT_HTTP/alerts")
case "$ALERTS" in
*'"eventWindow":{'*'"url":"/events?'*) ;;
*)
    echo "events-smoke: deadman alert carries no event window" >&2
    fetch "http://$COLLECT_HTTP/alerts" >&2 || true
    exit 1
    ;;
esac

echo "events-smoke: ok (link_down + reconnect burst journalled, topology time-travel consistent, deadman linked to its event window)"
