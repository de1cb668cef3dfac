#!/bin/sh
# ci.sh is the complete pre-merge gate: the tier-1 verify target (build, vet,
# gofmt, tests, and the whole tree again under the race detector), the
# registry history checker ten times, and the replication packages and the
# broker, transport and simnet packages (every simulated broker test runs the
# egress write token) three times under the race detector, every
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
# flight-recorder fallback, and the replicated-BDN failover with zero
# re-registrations).
set -eu
cd "$(dirname "$0")/.."

echo "ci: make verify"
make verify

# The replicated registry's history checker, the replication packages and the
# broker's egress path under the race detector, repeated: a protocol race shows
# up as a rare red.
echo "ci: go test -count=10 -run TestRegistryHistory ./internal/testbed"
go test -count=10 -run TestRegistryHistory ./internal/testbed
echo "ci: go test -race -count=3 ./internal/bdn/..."
go test -race -count=3 ./internal/bdn/...
echo "ci: go test -race -count=3 ./internal/broker/ ./internal/transport/ ./internal/simnet/"
go test -race -count=3 ./internal/broker/ ./internal/transport/ ./internal/simnet/

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
