#!/bin/sh
# serve_smoke.sh [path-to-pautoclassd] — end-to-end daemon smoke test.
#
# Starts pautoclassd on a scratch state directory, submits a training job
# over HTTP, polls it (and its live /progress view) to completion,
# publishes the fitted model and batch-scores the training rows against
# it, checks the
# health probes, the Prometheus exposition on /metrics, the JSON metrics
# on /metrics.json and /debug/trace, and shuts the daemon down. Needs
# curl, jq and awk.
set -eu

BIN="${1:-/tmp/pautoclassd}"
ADDR="127.0.0.1:${SMOKE_PORT:-8931}"
DIR="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

"$BIN" -addr "$ADDR" -dir "$DIR/state" -procs 2 -every 2 -log-format json &
PID=$!

# Wait for the daemon to come up, then check both probes.
for i in $(seq 1 100); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    [ "$i" = 100 ] && { echo "daemon never became healthy" >&2; exit 1; }
    sleep 0.1
done
curl -sf "http://$ADDR/healthz" | jq -e '.status == "ok"' >/dev/null
curl -sf "http://$ADDR/readyz" | jq -e '.ready == true' >/dev/null

# Two well-separated clusters over two real attributes.
jq -n '{
  name: "smoke",
  attrs: [{name: "x", type: "real"}, {name: "y", type: "real"}],
  rows: ([range(200)] | map([(. % 7 + (if . % 2 == 0 then 50 else 0 end)), (. % 11)])),
  search: {start_j_list: [2, 3], tries: 1, max_cycles: 20, parallelism: 1}
}' > "$DIR/job.json"

ID=$(curl -sf -X POST --data-binary @"$DIR/job.json" "http://$ADDR/v1/jobs" | jq -r .id)
[ -n "$ID" ] && [ "$ID" != null ] || { echo "job submission failed" >&2; exit 1; }

# Poll the job and its live progress together: tries_done must be
# monotonically non-decreasing and never exceed tries_total.
LAST_DONE=0
for i in $(seq 1 300); do
    STATE=$(curl -sf "http://$ADDR/v1/jobs/$ID" | jq -r .state)
    PROG=$(curl -sf "http://$ADDR/v1/jobs/$ID/progress")
    DONE=$(echo "$PROG" | jq -r .tries_done)
    TOTAL=$(echo "$PROG" | jq -r .tries_total)
    [ "$DONE" -ge "$LAST_DONE" ] || { echo "tries_done regressed $LAST_DONE -> $DONE" >&2; exit 1; }
    [ "$DONE" -le "$TOTAL" ] || { echo "tries_done $DONE exceeds tries_total $TOTAL" >&2; exit 1; }
    LAST_DONE=$DONE
    case "$STATE" in
        done) break ;;
        failed) curl -s "http://$ADDR/v1/jobs/$ID" >&2; exit 1 ;;
    esac
    [ "$i" = 300 ] && { echo "job stuck in $STATE" >&2; exit 1; }
    sleep 0.1
done
curl -sf "http://$ADDR/v1/jobs/$ID" | jq -e '.j >= 2' >/dev/null
curl -sf "http://$ADDR/v1/jobs/$ID/progress" \
    | jq -e '.state == "done" and .tries_done == .tries_total and .best_score != null' >/dev/null

# Registry flow: the daemon predicts only through a registered model, so
# publish the job as one and list it.
jq -n --arg job "$ID" '{id: "smoke-model", job_id: $job}' > "$DIR/publish.json"
curl -sf -X POST --data-binary @"$DIR/publish.json" "http://$ADDR/v1/models" \
    | jq -e '.id == "smoke-model" and .version.version == 1 and .active == 1
         and (.version.checksum | length) == 64' >/dev/null
curl -sf "http://$ADDR/v1/models" \
    | jq -e '.models | length == 1 and .[0].id == "smoke-model"' >/dev/null

# Batch-score the training rows against the model: first a cache miss,
# then a byte-identical cache hit.
jq '{rows: .rows, parallelism: 2}' "$DIR/job.json" > "$DIR/predict.json"
curl -sf -D "$DIR/h1" -X POST --data-binary @"$DIR/predict.json" \
    "http://$ADDR/v1/models/smoke-model/predict" > "$DIR/p1"
jq -e '.n == 200 and (.map | length) == 200 and (.memberships[0] | add) > 0.999' "$DIR/p1" >/dev/null
curl -sf -D "$DIR/h2" -X POST --data-binary @"$DIR/predict.json" \
    "http://$ADDR/v1/models/smoke-model/predict" > "$DIR/p2"
grep -qi '^x-cache: miss' "$DIR/h1" || { echo "first model predict not a cache miss" >&2; exit 1; }
grep -qi '^x-cache: hit' "$DIR/h2" || { echo "repeat model predict not a cache hit" >&2; exit 1; }
cmp -s "$DIR/p1" "$DIR/p2" || { echo "cache replay not byte-identical" >&2; exit 1; }
curl -sf "http://$ADDR/v1/models/smoke-model" \
    | jq -e '.active == 1 and .cache.hits >= 1 and .cache.misses >= 1' >/dev/null

# JSON metrics (legacy shape, now at /metrics.json). The cache hit scored
# no rows.
curl -sf "http://$ADDR/metrics.json" \
    | jq -e '.server.counters["serve.jobs.done"] >= 1
         and .server.counters["serve.predict.rows"] == 200
         and .run.counters["engine.cycles"] >= 1' >/dev/null

# Prometheus exposition on /metrics: families must be unique and sorted,
# the page must terminate with # EOF, and the per-route HTTP latency
# histogram and the training run's search metrics must be present.
curl -sf "http://$ADDR/metrics" > "$DIR/metrics.prom"
awk '
    /^# TYPE / {
        fam = $3
        if (fam in seen) { print "duplicate metric family: " fam; exit 1 }
        if (prev != "" && fam <= prev) { print "unsorted metric family: " fam " after " prev; exit 1 }
        seen[fam] = 1; prev = fam
    }
    END { if (prev == "") { print "no metric families in exposition"; exit 1 } }
' "$DIR/metrics.prom"
grep -q '^# EOF$' "$DIR/metrics.prom" || { echo "exposition missing # EOF" >&2; exit 1; }
grep 'http_request_seconds_bucket{' "$DIR/metrics.prom" | grep -q 'route="GET /healthz"' \
    || { echo "no per-route latency histogram in exposition" >&2; exit 1; }
grep -q '^search_tries_done{' "$DIR/metrics.prom" \
    || { echo "no search progress gauge in exposition" >&2; exit 1; }
CT=$(curl -sf -o /dev/null -w '%{content_type}' "http://$ADDR/metrics")
case "$CT" in
    application/openmetrics-text*) ;;
    *) echo "unexpected /metrics content type: $CT" >&2; exit 1 ;;
esac

curl -sf "http://$ADDR/debug/trace" | jq -e '.traceEvents | length > 0' >/dev/null

# Error envelope: stable code and message. A bare job ID is not a model.
curl -s "http://$ADDR/v1/jobs/999999" \
    | jq -e '.error.code == "not_found" and (.error.message | length) > 0' >/dev/null
curl -s -X POST --data-binary @"$DIR/predict.json" "http://$ADDR/v1/models/$ID/predict" \
    | jq -e '.error.code == "not_found"' >/dev/null

kill "$PID"
wait "$PID" 2>/dev/null || true
echo "serve smoke OK (job $ID)"
