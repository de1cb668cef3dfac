#!/bin/sh
# loadgen_smoke.sh boots a real broker on loopback sockets and drives the
# open-loop load generator through two short fixed-rate stages, then asserts
# the JSON report shows every published event delivered and sane latency
# percentiles (0 < p50 <= p99 <= p999). This is the end-to-end proof that the
# pacing loop, the scheduled-departure stamping and the HDR recording all
# work against a live broker, not just in unit tests.
set -eu
SMOKE=loadgen-smoke
. "$(dirname "$0")/lib.sh"

STREAM_PORT=19401
UDP_PORT=19402

build broker loadgen

"$BIN/broker" -bind 127.0.0.1 -logical loadgen-smoke-broker \
    -stream-port "$STREAM_PORT" -udp-port "$UDP_PORT" >"$TMP/broker.log" 2>&1 &
PIDS="$PIDS $!"

# Wait for the stream listener to come up.
i=0
until "$BIN/loadgen" -addr "127.0.0.1:$STREAM_PORT" -rates 100 -duration 100ms \
    -warmup 0 -subs 1 -drain 500ms -out "$TMP/probe.json" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 30 ]; then
        echo "loadgen-smoke: broker never came up" >&2
        cat "$TMP/broker.log" >&2
        exit 1
    fi
    sleep 0.2
done

"$BIN/loadgen" -addr "127.0.0.1:$STREAM_PORT" -rates 1000,5000 -duration 1s \
    -subs 2 -out "$TMP/report.json" 2>"$TMP/loadgen.log" || {
    echo "loadgen-smoke: loadgen failed" >&2
    cat "$TMP/loadgen.log" >&2
    cat "$TMP/broker.log" >&2
    exit 1
}

awk '
/"offered_rate_eps"/ { stages++ }
/"lost"/            { gsub(/[^0-9-]/, ""); lost += $0 + 0 }
/"delivered"/       { gsub(/[^0-9]/, ""); delivered += $0 + 0 }
/"p50_us"/          { gsub(/[^0-9.]/, ""); p50 = $0 + 0; if (p50 <= 0) bad = "p50 not positive" }
/"p99_us"/          { gsub(/[^0-9.]/, ""); p99 = $0 + 0; if (p99 + 0 < p50) bad = "p99 below p50" }
/"p999_us"/         { gsub(/[^0-9.]/, ""); if ($0 + 0 < p99) bad = "p999 below p99" }
END {
    if (stages != 2) { print "loadgen-smoke: expected 2 stages, saw " stages > "/dev/stderr"; exit 1 }
    if (delivered == 0) { print "loadgen-smoke: nothing delivered" > "/dev/stderr"; exit 1 }
    if (lost != 0) { print "loadgen-smoke: " lost " events lost on loopback" > "/dev/stderr"; exit 1 }
    if (bad != "") { print "loadgen-smoke: " bad > "/dev/stderr"; exit 1 }
    print "loadgen-smoke: ok (" stages " stages, " delivered " deliveries, 0 lost)"
}' "$TMP/report.json" || {
    cat "$TMP/report.json" >&2
    exit 1
}
