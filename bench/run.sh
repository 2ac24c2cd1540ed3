#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload; the arguments are
# the driver's (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
# Everything the build and the run write stays inside the checkout:
# .bench_build/ (binary, Go build cache) and bench/out/ (data directories,
# trace files).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/impliance-bench" .)
cd "$root"
exec "$build/impliance-bench" run -out bench/out "$@"
