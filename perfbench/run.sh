#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload cold-mc --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every file the build and the run write
# stays under the build directory: $CARGO_TARGET_DIR when set, else
# .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/main.go ]] || ! grep -q '^module coordattack$' go.mod; then
	echo "perfbench: run from the root of the coordattack repository" >&2
	exit 2
fi

command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

# Keep the Go toolchain's cache, temp files and settings inside the
# build directory, and never fetch a toolchain or module.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
mkdir -p "$GOTMPDIR"

go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" --work "$build/perfbench-work" --trace-out "$build/trace" "$@"
