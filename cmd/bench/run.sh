#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash cmd/bench/run.sh --workload train-paper --seed 1 --seconds 25 --trace 0
#
# The build cache, temporary files, the binary and every file a run writes
# stay under .bench_build/ at the repository root. Without the repository's
# sources next to cmd/bench the build fails and the script exits nonzero
# without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/cmd/bench" && go build -o "$build/bench.new" . && mv "$build/bench.new" "$build/bench") >&2
cd "$root"
exec "$build/bench" "$@"
