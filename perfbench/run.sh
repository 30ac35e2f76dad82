#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload write-wal-tcp --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory; no network access is needed or attempted.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off \
	GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
