GO ?= go

.PHONY: all build test race vet fmt-check verify exact exact-nbexp figures loc bench bench-gate fuzz obs-smoke health-smoke chaos-smoke loadgen-smoke flows-smoke events-smoke profiles-smoke durability-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# verify is the tier-1 gate: everything must pass before a merge. `test` and
# `race` each run the exact lane once (TestExactLane, under the detector in
# `race`), so of exact it adds only the nbexp comparison.
verify: build vet fmt-check test race exact-nbexp

# exact runs the exact lane: the tests in files tagged goexperiment.synctest,
# each in a synctest bubble where model time is the bubble's clock
# (TestExactLane runs them with GOEXPERIMENT=synctest, and with -race when it
# is itself built with -race), after exact-nbexp.
exact: exact-nbexp
	$(GO) test -count=1 -run '^TestExactLane$$' .

# exact-nbexp builds nbexp with the experiment, plain and with -race, and runs
# the whole registry at GOMAXPROCS 1 and 8 and under -race; the three outputs
# must be identical.
exact-nbexp:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	GOEXPERIMENT=synctest $(GO) build -o "$$dir/nbexp" ./cmd/nbexp && \
	GOEXPERIMENT=synctest $(GO) build -race -o "$$dir/nbexp-race" ./cmd/nbexp && \
	GOMAXPROCS=1 "$$dir/nbexp" -exp all -seed 1 > "$$dir/procs1" && \
	GOMAXPROCS=8 "$$dir/nbexp" -exp all -seed 1 > "$$dir/procs8" && \
	"$$dir/nbexp-race" -exp all -seed 1 > "$$dir/race" && \
	cmp "$$dir/procs1" "$$dir/procs8" && cmp "$$dir/procs1" "$$dir/race" && \
	echo "exact: nbexp -seed 1 is byte-identical at GOMAXPROCS 1 and 8 and under -race"

# figures regenerates the paper's evaluation — every table, figure and
# ablation of the registry — at the paper's recipe (120 runs, 100 kept after
# outlier removal, seed 1). nbexp is built with GOEXPERIMENT=synctest, so each
# experiment runs in a synctest bubble and its output is a function of the
# seed: EXPERIMENTS.md records this output.
figures:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	GOEXPERIMENT=synctest $(GO) build -o "$$dir/nbexp" ./cmd/nbexp && \
	"$$dir/nbexp" -exp all -runs 120 -keep 100 -seed 1

# loc prints non-test *.go lines per package directory of the working tree;
# `scripts/loc.sh <rev> [path...]` reads any revision without a checkout and
# -f lists per file — the before/after tables of simplification PRs.
loc:
	@sh scripts/loc.sh .

# bench runs the publish path's per-stage rungs (fan-out, the sorted Match
# wrapper and the MatchEachUnique walk under it, codec, dedup) — the numbers
# BENCH_fastpath.json records.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkPublishFanout' -benchmem -benchtime=2s ./internal/broker/
	$(GO) test -run '^$$' -bench 'BenchmarkTableMatch' -benchmem -benchtime=2s ./internal/topics/
	$(GO) test -run '^$$' -bench 'BenchmarkEventCodec' -benchmem -benchtime=2s ./internal/event/
	$(GO) test -run '^$$' -bench 'BenchmarkSeenParallel' -benchmem -benchtime=2s ./internal/dedup/

# bench-gate re-runs the publish fan-out benchmark and fails on a >2% ns/op
# regression or any allocs/op above the gates recorded in BENCH_fanout.json
# (fan-out, sampled fan-out, BenchmarkIngressToEgress's socket path, the ping
# handler, a whole loopback discovery, a registration refresh at a durable
# BDN, the flow sketch and the dedup window), or on more B/op than
# gate_udp_recv_bytes_op in BenchmarkRealPacketRecv or than
# gate_subscribe_wide_bytes_op in BenchmarkTableSubscribeWide/siblings=16384.
bench-gate:
	sh scripts/bench_gate.sh

# loadgen-smoke boots a real broker on loopback and drives the open-loop load
# generator through two fixed-rate stages, asserting zero loss and sane
# latency percentiles in the JSON report.
loadgen-smoke:
	sh scripts/loadgen_smoke.sh

# obs-smoke boots a real broker with -telemetry-addr and checks /healthz and
# the /metrics exposition, then a BDN + broker + obscollect fabric and
# asserts one synthetic probe trace assembles end to end.
obs-smoke:
	sh scripts/obs_smoke.sh

# health-smoke boots a BDN + 2 brokers + obscollect on real sockets, kills a
# broker and asserts the deadman alert fires on /alerts, then resolves once a
# broker under the same identity restarts.
health-smoke:
	sh scripts/health_smoke.sh

# flows-smoke boots an obscollect + a broker with the publish sampler enabled
# and drives loadgen traffic through it, asserting the collector's /flows
# endpoint accounts the topic and at least one message trace assembles.
flows-smoke:
	sh scripts/flows_smoke.sh

# chaos-smoke boots a BDN + supervised broker on real sockets, kills and
# restarts the BDN on the same port, and asserts the broker re-registers
# itself and discovery keeps selecting it.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# events-smoke boots a BDN + 2 linked brokers + obscollect on real sockets,
# kill -9s the dialed broker, and asserts the survivor's link_down and
# reconnect burst reach /events, /topology?at= time-travels across the
# teardown, and the deadman alert embeds its correlated event window.
events-smoke:
	sh scripts/events_smoke.sh

# profiles-smoke boots a BDN + 2 profiling brokers + obscollect on real
# sockets with loadgen traffic, asserts periodic pprof captures are pulled
# into the collector's /profiles (spooled on disk, rendered by ?view=top),
# then kill -9s a broker and asserts the deadman alert links the node's
# retained captures — the flight recorder's dead-node fallback.
profiles-smoke:
	sh scripts/profiles_smoke.sh

# durability-smoke boots a 3-member BDN set (-data-dir, -peers: each pulls the
# others' tables) + 2 supervised brokers on real sockets, SIGKILLs a member,
# and asserts the survivors still list every broker and answer discovery with
# the brokers' bdn reconnect counters at zero; a broker registered while the
# member is down is on it within an exchange period of its restart.
durability-smoke:
	sh scripts/durability_smoke.sh

# ci is the full pre-merge pipeline (scripts/ci.sh): verify, every benchmark
# for one iteration, the bench/ module's own tests, bench-gate, then the eight
# smoke lanes.
ci:
	sh scripts/ci.sh

# fuzz gives the differential fuzzers a short budget each; CI-friendly.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTableMatchDifferential -fuzztime 30s ./internal/topics/
	$(GO) test -run '^$$' -fuzz FuzzTableCOWvsLocked -fuzztime 30s ./internal/topics/
	$(GO) test -run '^$$' -fuzz FuzzParseMatchesDecode -fuzztime 30s ./internal/event/
	$(GO) test -run '^$$' -fuzz FuzzCoreDecoders -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzRegistryRecord -fuzztime 30s ./internal/bdn/
	$(GO) test -run '^$$' -fuzz FuzzSegmentRecovery -fuzztime 30s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzScrape -fuzztime 30s ./internal/obs/collect/
	$(GO) test -run '^$$' -fuzz FuzzStreamFraming -fuzztime 30s ./internal/transport/
