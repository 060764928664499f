#!/usr/bin/env bash
# Builds the qbench binary from the checkout's sources and runs it with the
# given arguments (see main.go for the flags). Run from the repository root:
#
#   bash qbench/run.sh --workload hot-stream --seed 1 --seconds 40 --trace 0
#
# Every build and temporary file stays under .bench_build/ in the current
# directory, so the run touches nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/qbench" build -o "$out/qbench" .
exec "$out/qbench" "$@"
