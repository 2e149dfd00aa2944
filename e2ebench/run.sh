#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload flow-atpg --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under $CARGO_TARGET_DIR (default .bench_build) in that root; a
# traced run leaves its spans in spans.jsonl there.
set -euo pipefail

root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOFLAGS=

go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" --spans "$out/spans.jsonl" "$@"
