#!/usr/bin/env bash
# Builds the benchmark and cmd/turnserver from the checkout this is run
# in, then runs the benchmark with the given arguments, e.g.
#
#   bash bench/run.sh -workload figures -seed 1 -seconds 20 -trace 0
#
# Run it from the repository root. Binaries, the Go build cache and
# every scratch file stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=

(cd bench && go build -o "$out/bench" .)
go build -o "$out/turnserver" ./cmd/turnserver
exec "$out/bench" -root "$root" -turnserver "$out/turnserver" "$@"
