#!/bin/sh
# serve_load_smoke.sh — predict-tier load smoke (EXPERIMENTS.md, SERVE recipe).
#
# Runs the benchserve harness on a small workload: train a model, publish
# it into the registry, restart the predict tier on the same state
# directory with two warm scorers, then drive sustained concurrent
# predict traffic while byte-checking every 200 response against the
# solo-request baselines. The emitted report must show the bitwise
# self-check passed, finite ordered percentiles, and real throughput.
# Needs jq. The committed BENCH_serve.json records the reference numbers
# (`make bench-serve`).
set -eu

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
OUT="$DIR/BENCH_serve.json"

go run ./cmd/benchserve \
    -train-rows 150 -predict-rows 40 -bodies 3 \
    -clients 4 -per-client 8 -predict-procs 2 \
    -o "$OUT"

jq . "$OUT"
jq -e '.bitwise_match == true' "$OUT" >/dev/null \
    || { echo "bitwise self-check failed: concurrent responses diverged" >&2; exit 1; }
jq -e '.requests > 0 and .qps > 0' "$OUT" >/dev/null \
    || { echo "no throughput measured" >&2; exit 1; }
# Percentiles must be finite, positive and ordered (NaN/Inf encode as
# null or huge numbers; a self-comparison catches null, the bound Inf).
jq -e '(.p50_ms > 0) and (.p99_ms >= .p50_ms) and (.p99_ms < 1e9)' "$OUT" >/dev/null \
    || { echo "latency percentiles broken or non-finite" >&2; exit 1; }
jq -e '.bytes_per_req > 0' "$OUT" >/dev/null \
    || { echo "no response bytes accounted" >&2; exit 1; }
# Cycled bodies repeat across clients, so the response cache must have
# answered part of the traffic.
jq -e '.cache_hit_rate > 0' "$OUT" >/dev/null \
    || { echo "response cache never hit" >&2; exit 1; }

echo "serve load smoke OK ($(jq -r '"\(.requests) reqs, p99 \(.p99_ms)ms, \(.qps | floor) qps"' "$OUT"))"
