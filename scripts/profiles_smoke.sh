#!/bin/sh
# profiles_smoke.sh smoke-tests the continuous-profiling plane on real
# processes: two brokers run with -profile-every on a -telemetry-addr, a BDN
# without it, a loadgen stage keeps one broker genuinely busy, and an
# obscollect scraping them (-nodes) takes the periodic rounds the brokers'
# scrapes ask for from their pprof endpoints into its spool. The collector
# must (1) hold periodic captures of both brokers and none of the BDN, (2)
# serve them on /profiles with a working ?view=top rendering, (3) spool them
# to -profile-dir, and (4) when a broker is killed, attach that node's
# freshest retained captures to the firing deadman alert — the flight
# recorder's dead-node fallback, which is the whole point of profiling
# continuously: the post-mortem evidence was collected pre-mortem. No node
# serves /profiles of its own.
#
# Uses curl or wget, whichever the host has.
set -eu
SMOKE=profiles-smoke
. "$(dirname "$0")/lib.sh"

COLLECT_HTTP="127.0.0.1:17811"
BDN_TELEMETRY="127.0.0.1:17810"
BDN_STREAM="127.0.0.1:17812"
A_STREAM=17813
A_UDP=17814
A_TELEMETRY="127.0.0.1:17815"
B_STREAM=17816
B_UDP=17817
B_TELEMETRY="127.0.0.1:17818"

flat() { tr -d ' \n\t'; }

status() { # status <url>: the HTTP status code a GET of url answers
    if command -v curl >/dev/null 2>&1; then
        curl -s -o /dev/null -w '%{http_code}' "$1"
    else
        wget -S -qO /dev/null "$1" 2>&1 | awk '/^  HTTP\//{code = $2} END {print code}'
    fi
}

build broker bdn loadgen obscollect

"$BIN/obscollect" -nodes "$BDN_TELEMETRY,$A_TELEMETRY,$B_TELEMETRY" -http "$COLLECT_HTTP" \
    -scrape-interval 1s -profile-dir "$TMP/spool" \
    >"$TMP/obscollect.log" 2>&1 &
PIDS="$PIDS $!"

"$BIN/bdn" -bind 127.0.0.1 -name gridservicelocator.org -stream-port 17812 \
    -telemetry-addr "$BDN_TELEMETRY" >"$TMP/bdn.log" 2>&1 &
PIDS="$PIDS $!"
sleep 0.3

"$BIN/broker" -bind 127.0.0.1 -logical prof-a -bdn "$BDN_STREAM" \
    -stream-port "$A_STREAM" -udp-port "$A_UDP" \
    -telemetry-addr "$A_TELEMETRY" \
    -profile-every 1s >"$TMP/broker-a.log" 2>&1 &
PIDS="$PIDS $!"

"$BIN/broker" -bind 127.0.0.1 -logical prof-b -bdn "$BDN_STREAM" \
    -stream-port "$B_STREAM" -udp-port "$B_UDP" \
    -telemetry-addr "$B_TELEMETRY" \
    -profile-every 1s >"$TMP/broker-b.log" 2>&1 &
BPID=$!
PIDS="$PIDS $BPID"

i=0
until fetch "http://$COLLECT_HTTP/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "profiles-smoke: collector never came up" >&2
        cat "$TMP/obscollect.log" >&2
        exit 1
    fi
    sleep 0.1
done

# Drive real publish load through prof-a while its profiler samples, so the
# captured CPU profiles are of a broker actually doing its job. The probe
# loop doubles as the broker-up wait.
i=0
until "$BIN/loadgen" -addr "127.0.0.1:$A_STREAM" -rates 100 -duration 100ms \
    -warmup 0 -subs 1 -drain 500ms -out "$TMP/probe.json" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 30 ]; then
        echo "profiles-smoke: broker prof-a never came up" >&2
        cat "$TMP/broker-a.log" >&2
        exit 1
    fi
    sleep 0.2
done
"$BIN/loadgen" -addr "127.0.0.1:$A_STREAM" -rates 2000 -duration 2s -subs 2 \
    -out "$TMP/load.json" >"$TMP/loadgen.log" 2>&1 &
PIDS="$PIDS $!"

# Periodic captures of BOTH brokers must land in the collector (prof-b's are
# the post-mortem evidence for the kill below).
for node in prof-a prof-b; do
    i=0
    until fetch "http://$COLLECT_HTTP/profiles?node=$node&trigger=periodic" | flat | grep -q '"id":"'; do
        i=$((i + 1))
        if [ "$i" -ge 150 ]; then
            echo "profiles-smoke: no periodic captures of $node" >&2
            fetch "http://$COLLECT_HTTP/profiles" >&2 || true
            cat "$TMP/obscollect.log" >&2
            exit 1
        fi
        sleep 0.1
    done
done

# The BDN asked for no profiles, so the collector took none of it.
if fetch "http://$COLLECT_HTTP/profiles?node=gridservicelocator.org" | flat | grep -q '"id":"'; then
    echo "profiles-smoke: the collector profiled the BDN, which asked for nothing" >&2
    fetch "http://$COLLECT_HTTP/profiles?node=gridservicelocator.org" >&2 || true
    exit 1
fi

# A node keeps no profiles: a broker's /profiles is not found.
code=$(status "http://$A_TELEMETRY/profiles")
if [ "$code" != 404 ]; then
    echo "profiles-smoke: broker prof-a answered /profiles with $code, want 404" >&2
    exit 1
fi

# The spool directory holds the captures on disk.
if ! ls "$TMP/spool"/*.pprof >/dev/null 2>&1; then
    echo "profiles-smoke: spool directory has no .pprof files" >&2
    ls -la "$TMP/spool" >&2 || true
    exit 1
fi

# A periodic goroutine capture renders through the dep-free ?view=top path.
GID=$(fetch "http://$COLLECT_HTTP/profiles?node=prof-a&kind=goroutine" | flat |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p' | head -1)
if [ -z "$GID" ]; then
    echo "profiles-smoke: no goroutine capture for prof-a" >&2
    fetch "http://$COLLECT_HTTP/profiles?node=prof-a" >&2 || true
    exit 1
fi
fetch "http://$COLLECT_HTTP/profiles/$GID?view=top" | grep -q 'goroutine profile: total' || {
    echo "profiles-smoke: ?view=top did not render capture $GID" >&2
    fetch "http://$COLLECT_HTTP/profiles/$GID?view=top" >&2 || true
    exit 1
}

# Fault: kill prof-b. Deadman must fire, and because the node is gone the
# flight recorder cannot capture live — it must fall back to linking the
# captures it already took, so the alert still carries pprof evidence.
kill -9 "$BPID"
wait "$BPID" 2>/dev/null || true
i=0
until fetch "http://$COLLECT_HTTP/alerts" | flat |
    grep -q '"rule":"deadman","node":"prof-b","state":"firing"'; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "profiles-smoke: deadman never fired for killed prof-b" >&2
        fetch "http://$COLLECT_HTTP/alerts" >&2 || true
        cat "$TMP/obscollect.log" >&2
        exit 1
    fi
    sleep 0.1
done

# Flight-recorder linkage is asynchronous; poll for the profile refs on the
# alert (their ids are prefixed with the node they were captured from).
i=0
until fetch "http://$COLLECT_HTTP/alerts" | flat |
    grep -q '"profiles":\[{"id":"[0-9]*-prof-b'; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "profiles-smoke: deadman alert never linked prof-b captures" >&2
        fetch "http://$COLLECT_HTTP/alerts" >&2 || true
        cat "$TMP/obscollect.log" >&2
        exit 1
    fi
    sleep 0.1
done

echo "profiles-smoke: ok (periodic captures of the brokers alone, spooled, view=top rendered, no node /profiles, dead-node alert linked retained profiles)"
