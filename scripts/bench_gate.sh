#!/bin/sh
# bench_gate.sh is the publish fast-path performance gate: it re-runs
# BenchmarkPublishFanout COUNT times, takes the best (minimum) ns/op — the
# run least disturbed by scheduler noise — and compares it against the
# gate_ns_op / gate_allocs_op recorded in BENCH_fanout.json. More than a 2%
# ns/op regression, or any allocs/op above the recorded gate, fails.
# Allocation-only gates follow: the sampled fan-out and the socket ingress
# path in allocs/op (gate_sampled_allocs_op / gate_ingress_allocs_op), the
# UDP receive in B/op (gate_udp_recv_bytes_op), the discovery path's
# ping handler and whole loopback discovery in allocs/op
# (gate_answer_ping_allocs_op / gate_discover_allocs_op), and a registration
# refresh at a durable BDN in allocs/op (gate_store_ad_allocs_op), the
# flow sketch's miss, hit and the two racing in allocs/op
# (gate_flow_churn_allocs_op / gate_flow_hit_allocs_op /
# gate_flow_parallel_allocs_op), and the dedup window's insert-and-evict in
# allocs/op (gate_seen_allocs_op), and one subscription write beside 16 384
# siblings in B/op (gate_subscribe_wide_bytes_op). On Linux a last gate holds
# the context switches an idle process makes to answer one datagram or frame
# (gate_idle_wake_ctxsw_op). Every gate runs: each failure prints a FAIL line,
# and the script exits non-zero after the last gate if any failed.
#
#   sh scripts/bench_gate.sh            # defaults: COUNT=8, 2% threshold
#   COUNT=12 REGRESSION_PCT=5 sh scripts/bench_gate.sh
set -eu
cd "$(dirname "$0")/.."

BENCH_FILE=${BENCH_FILE:-BENCH_fanout.json}
COUNT=${COUNT:-8}
REGRESSION_PCT=${REGRESSION_PCT:-2}

if [ ! -f "$BENCH_FILE" ]; then
    echo "bench-gate: $BENCH_FILE not found" >&2
    exit 1
fi

GATE_NS=$(sed -n 's/.*"gate_ns_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_ALLOCS=$(sed -n 's/.*"gate_allocs_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_SAMPLED_ALLOCS=$(sed -n 's/.*"gate_sampled_allocs_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_INGRESS_ALLOCS=$(sed -n 's/.*"gate_ingress_allocs_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_UDP_RECV_BYTES=$(sed -n 's/.*"gate_udp_recv_bytes_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_ANSWER_PING_ALLOCS=$(sed -n 's/.*"gate_answer_ping_allocs_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_DISCOVER_ALLOCS=$(sed -n 's/.*"gate_discover_allocs_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_STORE_AD_ALLOCS=$(sed -n 's/.*"gate_store_ad_allocs_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_FLOW_CHURN_ALLOCS=$(sed -n 's/.*"gate_flow_churn_allocs_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_FLOW_HIT_ALLOCS=$(sed -n 's/.*"gate_flow_hit_allocs_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_FLOW_PARALLEL_ALLOCS=$(sed -n 's/.*"gate_flow_parallel_allocs_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_SEEN_ALLOCS=$(sed -n 's/.*"gate_seen_allocs_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_IDLE_WAKE_CTXSW=$(sed -n 's/.*"gate_idle_wake_ctxsw_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
GATE_SUBSCRIBE_WIDE_BYTES=$(sed -n 's/.*"gate_subscribe_wide_bytes_op"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$BENCH_FILE" | head -1)
if [ -z "$GATE_NS" ] || [ -z "$GATE_ALLOCS" ]; then
    echo "bench-gate: $BENCH_FILE carries no gate_ns_op / gate_allocs_op" >&2
    exit 1
fi

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
fails=0

echo "bench-gate: running BenchmarkPublishFanout x$COUNT (gate: ${GATE_NS} ns/op +${REGRESSION_PCT}%, ${GATE_ALLOCS} allocs/op)"
go test -run '^$' -bench 'BenchmarkPublishFanout$' -benchmem -benchtime=1s \
    -count "$COUNT" ./internal/broker/ | tee "$OUT"

# Benchmark lines: name  iters  X ns/op  Y MB/s  Z B/op  W allocs/op
awk -v gate_ns="$GATE_NS" -v gate_allocs="$GATE_ALLOCS" -v pct="$REGRESSION_PCT" '
/^BenchmarkPublishFanout/ {
    for (i = 1; i <= NF; i++) {
        if ($i == "ns/op" && (best_ns == "" || $(i-1) + 0 < best_ns)) best_ns = $(i-1) + 0
        if ($i == "allocs/op" && (best_allocs == "" || $(i-1) + 0 < best_allocs)) best_allocs = $(i-1) + 0
    }
    runs++
}
END {
    if (runs == 0) { print "bench-gate: no benchmark output parsed" > "/dev/stderr"; exit 1 }
    limit = gate_ns * (1 + pct / 100)
    printf "bench-gate: best of %d runs: %.0f ns/op (limit %.0f), %d allocs/op (gate %d)\n", \
        runs, best_ns, limit, best_allocs, gate_allocs
    failed = 0
    if (best_ns > limit) {
        printf "bench-gate: FAIL: %.0f ns/op exceeds %.0f (gate %.0f +%s%%)\n", best_ns, limit, gate_ns, pct > "/dev/stderr"
        failed = 1
    }
    if (best_allocs > gate_allocs) {
        printf "bench-gate: FAIL: %d allocs/op exceeds gate %d\n", best_allocs, gate_allocs > "/dev/stderr"
        failed = 1
    }
    exit failed
}' "$OUT" || fails=$((fails + 1))

# allocs_gate PKG NAME UNIT GATE: run benchmark NAME of package PKG twice and
# fail if the best UNIT (allocs/op, B/op or a reported metric) of any of its
# (sub-)benchmarks exceeds GATE. ns/op is not gated.
allocs_gate() {
    echo "bench-gate: running $2 x2 (gate: $4 $3, ns ungated)"
    go test -run '^$' -bench "$2\$" -benchmem -benchtime=1s \
        -count 2 "$1" | tee "$OUT"
    awk -v name="$2" -v unit="$3" -v gate="$4" '
    index($1, name) == 1 {
        for (i = 1; i <= NF; i++)
            if ($i == unit && (!($1 in best) || $(i-1) + 0 < best[$1])) best[$1] = $(i-1) + 0
        runs++
    }
    END {
        if (runs == 0) { print "bench-gate: no " name " output parsed" > "/dev/stderr"; exit 1 }
        for (b in best) {
            printf "bench-gate: %s best of 2 runs: %g %s (gate %g)\n", b, best[b], unit, gate
            if (best[b] > gate) {
                printf "bench-gate: FAIL: %s %g %s exceeds gate %g\n", b, best[b], unit, gate > "/dev/stderr"
                failed = 1
            }
        }
        exit failed
    }' "$OUT" || fails=$((fails + 1))
}

# Sampled-path gate: with message tracing live (1-in-N sampler + tracer) the
# fan-out must amortise to the recorded allocs/op — sampling may spend wall
# time on its winners, so only allocations are gated, not ns/op.
if [ -n "$GATE_SAMPLED_ALLOCS" ]; then
    allocs_gate ./internal/broker/ BenchmarkPublishFanoutSampled allocs/op "$GATE_SAMPLED_ALLOCS"
fi

# Ingress gate: a publish entering through a real socket (buffered receive
# into a pooled frame, in-place parse, pass-through fan-out to 4 and 64
# subscribers; with subs=4/sockets also the reader's own writev to 4 real
# subscriber sockets, and with /payload=16384 16 KiB bulk frames to 1 or 4)
# must not allocate on the broker's side in steady state. Wall
# time through a loopback socket is too noisy to gate here; the repository
# benchmark (bench/) measures it end to end.
if [ -n "$GATE_INGRESS_ALLOCS" ]; then
    allocs_gate ./internal/broker/ BenchmarkIngressToEgress allocs/op "$GATE_INGRESS_ALLOCS"
fi

# UDP receive gate: a datagram received on a real socket costs its own
# right-sized copy plus the sender's address, a few hundred bytes — not the
# 64 KiB read buffer per datagram that the discovery path paid until the
# buffer was pooled (BenchmarkRealPacketRecv also sends the datagram, so the
# figure includes the send side's allocations).
if [ -n "$GATE_UDP_RECV_BYTES" ]; then
    allocs_gate ./internal/transport/ BenchmarkRealPacketRecv B/op "$GATE_UDP_RECV_BYTES"
fi

# Ping-handler gate: a broker answers a UDP ping from a view parsed in place;
# what it allocates is the pong. A header map built per datagram (15 allocs/op
# when the handler decoded the ping) must not come back.
if [ -n "$GATE_ANSWER_PING_ALLOCS" ]; then
    allocs_gate ./internal/broker/ BenchmarkAnswerPing allocs/op "$GATE_ANSWER_PING_ALLOCS"
fi

# Discovery gate: one whole warm discovery over loopback (1 BDN, 6 brokers,
# 52 messages) across every process it touches. 1 241 allocs/op when every
# discovery opened its own socket and session and decoded every datagram.
if [ -n "$GATE_DISCOVER_ALLOCS" ]; then
    allocs_gate . BenchmarkDiscoverLoopback allocs/op "$GATE_DISCOVER_ALLOCS"
fi

# Registry gate: one broker refreshing its registration at a durable BDN
# (decode, admit, commit the upsert, append it to the WAL). The upsert is
# committed from the advertisement the handler already decoded and the payload
# it already holds; a second decode or encode on the way to the table shows
# here.
if [ -n "$GATE_STORE_AD_ALLOCS" ]; then
    allocs_gate ./internal/bdn/ BenchmarkStoreAdvertisement allocs/op "$GATE_STORE_AD_ALLOCS"
fi

# Flow sketch gates: every publish accounts its topic in obs.FlowTable. A hit
# is two atomic adds; a miss (256 topics cycled through the 64-entry table, so
# every publish evicts) recycles the evicted entry in place and allocates
# nothing. 7 allocs/op when a miss copied the whole table, 2 when it
# allocated the new entry and its topic. The parallel rung races hits on one
# hot topic against that churn.
if [ -n "$GATE_FLOW_CHURN_ALLOCS" ]; then
    allocs_gate ./internal/obs/ BenchmarkFlowPublishedChurn allocs/op "$GATE_FLOW_CHURN_ALLOCS"
fi
if [ -n "$GATE_FLOW_HIT_ALLOCS" ]; then
    allocs_gate ./internal/obs/ BenchmarkFlowPublishedHit allocs/op "$GATE_FLOW_HIT_ALLOCS"
fi
if [ -n "$GATE_FLOW_PARALLEL_ALLOCS" ]; then
    allocs_gate ./internal/obs/ BenchmarkFlowPublishedParallel allocs/op "$GATE_FLOW_PARALLEL_ALLOCS"
fi
# Dedup gate: every publish a broker admits passes its event window. Fresh IDs
# into a full window, the 1000-ID request cache and the sharded 4000-ID event
# window (BenchmarkSeen/cap=*), insert one ID and evict another without
# allocating.
if [ -n "$GATE_SEEN_ALLOCS" ]; then
    allocs_gate ./internal/dedup/ BenchmarkSeen allocs/op "$GATE_SEEN_ALLOCS"
fi

# Subscription-write gate: one Subscribe plus Unsubscribe beside 16 384
# siblings under one trie node copies the hash-trie levels on the new key's
# path, a few KiB. 1 748 936 B/op when every write cloned the node's whole
# children map.
if [ -n "$GATE_SUBSCRIBE_WIDE_BYTES" ]; then
    allocs_gate ./internal/topics/ BenchmarkTableSubscribeWide/siblings=16384 B/op "$GATE_SUBSCRIBE_WIDE_BYTES"
fi

# Idle-wake gate: a child process that sleeps between messages answers one
# datagram or one frame per millisecond. Its socket calls are raw on Linux, so
# a wake from idle is the poller's thread and no other: about 1.3 context
# switches per message. A socket call through syscall.Syscall also wakes and
# parks the runtime's sysmon thread: about 3 per message.
if [ -n "$GATE_IDLE_WAKE_CTXSW" ] && [ "$(go env GOOS)" = linux ]; then
    allocs_gate ./internal/transport/ BenchmarkIdleWake ctxsw/op "$GATE_IDLE_WAKE_CTXSW"
fi

if [ "$fails" -gt 0 ]; then
    echo "bench-gate: FAIL: $fails gate(s) failed" >&2
    exit 1
fi
echo "bench-gate: ok"
