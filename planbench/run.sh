#!/usr/bin/env bash
# Builds the plan-service benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash planbench/run.sh --workload plan-cold --seed 1 --seconds 15 --trace 0
#
# The Go build cache, module cache and config, the binary, plan stores and
# span files all stay under .bench_build/ in the checkout. Build output goes
# to stderr, so the last line of stdout is the benchmark's JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go -C "$root/planbench" build -o "$out/planbench" . >&2
exec "$out/planbench" --work-dir "$out" "$@"
