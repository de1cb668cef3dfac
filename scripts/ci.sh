#!/bin/sh
# ci.sh is the complete pre-merge gate: the tier-1 verify target (build, vet,
# gofmt, tests, the whole tree again under the race detector, the exact lane
# included both times, and nbexp's model-time output compared across
# GOMAXPROCS and -race: make exact), ten seconds of fuzzing the stream
# framing over a loopback socket, a vet for darwin and a build for windows
# (the platforms without raw socket calls), the BDN package (its table exchange
# included) and the broker, transport and simnet packages (every
# simulated broker test runs the egress write token), wall and exact-lane
# tests both, three times under the race detector, every
# benchmark in the tree run for one iteration (a benchmark that no longer
# runs is a bug, and nothing else would notice), the repository benchmark's
# own module (bench/ is nested, so ./... never reaches it, and an API rename
# that breaks it would otherwise pass), the publish fast-path performance gate (>2% ns/op regression
# on the fan-out, or any new allocation on the fan-out, its sampled variant or
# the socket ingress path, fails), and finally the eight real-socket smoke
# tests (collector/prober trace assembly, per-topic flow accounting +
# message sampling, health-engine failure detection, self-healing BDN
# re-registration, the open-loop load generator, the control-plane event
# journal with topology time-travel, the continuous-profiling plane with its
# flight-recorder fallback, and a BDN set losing a member with zero
# re-registrations, then the member pulling what it missed). The collector
# lanes run obscollect at -scrape-interval 1s, its only clock: every rule
# window and hold they wait on is the default deployment's.
set -eu
cd "$(dirname "$0")/.."

echo "ci: make verify"
make verify

# The stream framing is the first decoder every byte from the network meets:
# a short fuzz of frame sizes and write boundaries over a loopback socket.
echo "ci: go test -run '^\$' -fuzz FuzzStreamFraming -fuzztime 10s ./internal/transport"
go test -run '^$' -fuzz FuzzStreamFraming -fuzztime 10s ./internal/transport

# Linux issues its socket calls raw (internal/transport/rawio_linux.go); every
# other platform builds the net fallback, which nothing here would run.
echo "ci: GOOS=darwin GOARCH=arm64 go vet ./... && GOOS=windows go build ./..."
GOOS=darwin GOARCH=arm64 go vet ./...
GOOS=windows go build ./...

# The BDN package and the broker's egress path under the race detector,
# repeated: a protocol race shows up as a rare red. With the experiment on,
# each run covers the packages' exact-lane tests as well as their wall ones.
# (make verify's `race` has already run the whole exact lane, the BDN set's
# history checker over its ten seeds included, under the detector once.)
echo "ci: GOEXPERIMENT=synctest go test -race -count=3 ./internal/bdn/..."
GOEXPERIMENT=synctest go test -race -count=3 ./internal/bdn/...
echo "ci: GOEXPERIMENT=synctest go test -race -count=3 ./internal/broker/ ./internal/transport/ ./internal/simnet/"
GOEXPERIMENT=synctest go test -race -count=3 ./internal/broker/ ./internal/transport/ ./internal/simnet/

echo "ci: go test -run '^\$' -bench . -benchtime=1x ./..."
go test -run '^$' -bench . -benchtime=1x ./...

echo "ci: (cd bench && go vet . && go test .)"
(cd bench && go vet . && go test .)

echo "ci: make bench-gate"
make bench-gate

# The smoke scripts share one set of binaries (scripts/lib.sh builds into
# SMOKE_BIN what is not there yet).
SMOKE_BIN="$(mktemp -d)"
export SMOKE_BIN
trap 'rm -rf "$SMOKE_BIN"' EXIT

for lane in loadgen obs flows health chaos events profiles durability; do
	echo "ci: make $lane-smoke"
	make "$lane-smoke"
done

echo "ci: ok"
