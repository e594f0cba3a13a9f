#!/usr/bin/env bash
# Entry point of the repo benchmark (see BENCHMARK.json and bench/README.md).
# Builds the benchmark and the server under test from source into
# .bench_build/ at the checkout root — Go's build cache, temp files and
# telemetry counters (which follow XDG_CONFIG_HOME) are kept there too, so
# nothing is written outside the checkout — then runs the benchmark with the
# given flags.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bin/chameleon-benchmark" .) >&2
(cd "$root" && go build -o "$build/bin/chameleon-serve" ./cmd/chameleon-serve) >&2
exec "$build/bin/chameleon-benchmark" -root "$root" "$@"
