#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload solve_ba_skew --seed 3 --seconds 20 --trace 0
#   bash benchmark/run.sh --seed 1          # every workload, one child process each
#
# Every file the Go toolchain writes (build cache, module cache, temp files,
# the binary) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/home" "$build/tmp"
export HOME=$build/home XDG_CONFIG_HOME=$build/home XDG_CACHE_HOME=$build/home
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -o "$build/arbods-benchmark" .) >&2
exec "$build/arbods-benchmark" "$@"
