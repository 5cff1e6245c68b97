#!/usr/bin/env bash
# Builds ldpjoind and the ldpbench program from this checkout, then runs
# ldpbench with the given arguments. Run from the repository root:
#
#   bash ldpbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build in the
# checkout: the Go build cache, the binaries, data dirs, logs and spans.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/ldpbench" && go build -o "$build/bin/ldpbench" . && go build -o "$build/bin/ldpjoind" ldpjoin/cmd/ldpjoind)
exec "$build/bin/ldpbench" -daemon "$build/bin/ldpjoind" -work "$build/work" "$@"
