#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run it from the root of a checkout:
#
#   bash bench/run.sh --workload fanout_small --seed 1 --seconds 20 --trace 0
#
# It compiles the benchmark (a Go module of its own in bench/) and hands over
# to it; the benchmark then compiles the program's cmd/broker and cmd/bdn.
# Everything generated — the Go build cache included — stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/broker" ] || [ ! -d "$root/bench" ]; then
	echo "bench: start me from the root of a checkout that holds the program (go.mod, cmd/broker) and bench/" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

go build -C "$root/bench" -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
