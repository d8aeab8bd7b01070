#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout this
# script sits in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload streams --seed 1 --seconds 15 --trace 0
#
# Build outputs (binary, Go build cache) and run artefacts (traces,
# profiles, per-run reports) stay under <checkout>/.bench_build.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" "$@"
