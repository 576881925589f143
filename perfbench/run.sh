#!/usr/bin/env bash
# Builds the benchmark and the engine from the source in this checkout,
# then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-adapt --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTOOLCHAIN=local
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out/runs" "$@"
