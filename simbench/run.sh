#!/usr/bin/env bash
# Builds the simulator-cost benchmark from source and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash simbench/run.sh --workload paper-dc --seed 1 --seconds 10 --trace 0
#   bash simbench/run.sh --workload contention --seconds 10 --steady 10 --sets 2
#
# The binary, the Go build cache and the go command's temporary and
# configuration files all stay under .bench_build/ in the repository.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd simbench && go build -o "$out/simbench" .)
exec "$out/simbench" "$@"
