#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload pif-udp --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and a traced run's spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" # go's telemetry and env file
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

# The benchmark module replaces the library with ../, the checkout; the
# build fails, and nothing is printed on stdout, when the sources are
# not there.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" --trace-dir "$out/traces" "$@"
