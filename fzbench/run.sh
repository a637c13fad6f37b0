#!/usr/bin/env bash
# Builds the fuzzyphase benchmark from source and runs one workload.
#
#   fzbench/run.sh --workload <cold-suite|warm-store|serve-upload> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, temporary profile stores, span files) goes to one build
# directory: $CARGO_TARGET_DIR when set (taken as is when absolute, under
# the current directory when relative), .bench_build/ otherwise.
# CARGO_TARGET_DIR is Cargo's name for a build directory; honouring it lets
# one setting place the build output of Rust and Go benchmarks alike.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/home"

# Keep the go tool's caches, config and temporary files inside the build
# directory, and never let it fetch a toolchain or a module.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off

(cd "$bench_dir" && go build -o "$build/fzbench" .)
exec "$build/fzbench" --work-dir "$build" "$@"
