GO ?= go

.PHONY: build test vet race bench bench-kernels bench-predict bench-search bench-ooc bench-serve check trace-smoke faults fuzz-smoke api apicheck serve-smoke obs-smoke async-smoke ooc-smoke serve-load-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The hybrid engine runs goroutine pools inside every rank; keep the race
# detector on the whole tree so new concurrency is checked on every PR.
# The bitwise-across-Parallelism, chunked-equivalence and FoldRowLogLik
# properties, the block step's sweep equivalence (four goroutines sharing
# one kernel set), and the resume, interrupt, observer and hybrid search
# properties (every try commits through the concurrent variant scheduler),
# the vector kernels of model.NormalRun and model.FoldMax against their Go
# loops (masked runs included) and the daemon's warm predict scorers
# (several dispatchers on one queue), then run at several GOMAXPROCS
# values, so a one-core host cannot hide a race; the exp kernel's
# self-check must fall back when FMA is off; its non-amd64 fallback must
# keep compiling; and on 386, where no vector kernel builds, the Go loops
# run as the whole path against the unfused oracle.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 \
		-run 'Concurrent|AcrossParallelism|ParallelismInvariance|ParallelismBitwise|FusedTraining|ChunkedMatches|ChunkedAligned|FoldRowLogLik|RaceFree|HybridTrajectory|PredictRanksBitwise|Resum|Interrupt|SearchObserver|SearchHybrid|KillAndResume|Sweeps|NormalRunScore|FoldLanes|FoldMax|ServeBatchingBitwise|ServePredictKillRestart' \
		./internal/model ./internal/autoclass ./internal/pautoclass ./internal/serve
	GODEBUG=cpu.fma=off $(GO) test -run Exp ./internal/stats
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/model ./internal/stats
	GOARCH=386 $(GO) test -run 'Sweeps|NormalRun|FoldLanes|Normaliz|Chunked|Parallelism|Bitwise|Kernel' ./internal/autoclass

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Blocked-vs-reference kernel comparison on the paper's two-real-attribute
# dataset at J=8, emitted as BENCH_kernels.json (raw lines stay
# benchstat-comparable: jq -r '.raw_lines[]' BENCH_kernels.json).
bench-kernels:
	$(GO) test -run '^$$' -bench 'BenchmarkUpdateWts|BenchmarkBaseCycle' \
		-benchmem -count 1 ./internal/autoclass \
		| tee /dev/stderr | $(GO) run ./cmd/benchkernels -o BENCH_kernels.json

# Local equivalent of the CI trace-smoke job: a traced 4-rank Meiko run
# whose Chrome trace, events and metrics land in /tmp for inspection.
trace-smoke:
	$(GO) run ./cmd/datagen -workload paper -n 2000 -seed 7 -o /tmp/smoke.txt
	$(GO) run ./cmd/pautoclass -data /tmp/smoke.txt -procs 4 -start-j 4 \
		-tries 1 -max-cycles 10 -machine meiko \
		-trace-out /tmp/trace.json -events-out /tmp/events.jsonl \
		-metrics-out /tmp/metrics.json -phase-profile

# Fault-tolerance suite: fault-injection matrix (every collective ×
# Allreduce algorithm × transport with a rank killed mid-collective),
# deadline/retry semantics, and the kill-and-resume bitwise-identity
# test. The hard -timeout makes a hang a failure, not a stall.
faults:
	$(GO) test -race -timeout 180s \
		-run 'Fault|Flaky|Timeout|Deadline|Retry|Race|Checkpoint|Resume|KillAndResume' \
		./internal/mpi ./internal/autoclass ./internal/pautoclass ./cmd/pautoclass

# Fuzz smoke: every native fuzz target of the repository for 15 s each.
# Their seed corpora under testdata/fuzz run as plain tests in `make test`;
# a crasher found here is a bug to fix, and its input joins the corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSearchState$$' -fuzztime 15s ./internal/autoclass
	$(GO) test -run '^$$' -fuzz '^FuzzOpenChunked$$' -fuzztime 15s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSVWith$$' -fuzztime 15s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzTCPFrame$$' -fuzztime 15s ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzOpenRegistry$$' -fuzztime 15s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzPredictRequest$$' -fuzztime 15s ./internal/serve

# Batch-scoring comparison on the serving hot path: 10k held-out rows at
# J=8 under the blocked kernels vs the per-row reference oracle, emitted
# as BENCH_predict.json (same schema and tooling as BENCH_kernels.json).
bench-predict:
	$(GO) test -run '^$$' -bench 'BenchmarkPredict' -benchmem -count 1 \
		./internal/autoclass \
		| tee /dev/stderr | $(GO) run ./cmd/benchkernels -o BENCH_predict.json

# Variant-parallel BIG_LOOP baseline: per-try costs measured once, the
# scheduler's promise-order claim replayed on 1/2/4/8-worker pools for the
# modeled makespan speedup (the headline — CI hosts are single-core), and
# every worker count actually executed and checked bitwise against the
# sequential oracle. Emitted as BENCH_search.json.
bench-search:
	$(GO) run ./cmd/benchsearch -o BENCH_search.json

# api.txt is the committed exported surface of the facade package; `make
# api` regenerates it after an intentional API change, `make apicheck`
# fails when the surface drifted without the golden file being updated.
api:
	$(GO) run ./cmd/apidump -o api.txt .

apicheck:
	$(GO) run ./cmd/apidump . | diff -u api.txt - \
		|| { echo "facade API surface changed; run 'make api' and commit api.txt" >&2; exit 1; }

# Local equivalent of the CI daemon-smoke job: start pautoclassd, submit a
# training job over HTTP, poll it (and its live /progress view) to
# completion, batch-score the training rows against the fitted model,
# check /healthz and /readyz, and validate both metrics variants — the
# Prometheus exposition on /metrics (unique sorted families, # EOF,
# per-route latency histograms, search progress gauges) and the JSON
# shape on /metrics.json.
serve-smoke:
	$(GO) build -o /tmp/pautoclassd ./cmd/pautoclassd
	./scripts/serve_smoke.sh /tmp/pautoclassd

# The telemetry surface rides in the same daemon smoke; the alias names it
# for the observability acceptance runbook (EXPERIMENTS.md, OBS recipe).
obs-smoke: serve-smoke

# Bounded-staleness smoke (EXPERIMENTS.md, ASYNC recipe): the same 4-rank
# search at -sync-every 1 and 4 must agree on log-likelihood within 2%,
# and the quick comm-fraction sweep must pass its shape checks.
async-smoke:
	./scripts/async_smoke.sh

# Out-of-core data-plane benchmark: train and predict over a chunk file
# with the bounded cache holding a tenth of the chunks, self-checked
# bitwise against an in-memory load, emitted as BENCH_ooc.json.
bench-ooc:
	$(GO) run ./cmd/benchooc -o BENCH_ooc.json

# Predict-tier load benchmark: sustained concurrent traffic against the
# registry-served batching predict path on two warm scorers, every
# response byte-checked against solo baselines across a daemon restart,
# emitted as BENCH_serve.json (p50/p99, QPS, bytes/req, cache hit rate).
bench-serve:
	$(GO) run ./cmd/benchserve -o BENCH_serve.json

# Predict-tier load smoke (EXPERIMENTS.md, SERVE recipe): a small
# benchserve run whose bitwise self-check must pass and whose percentiles
# must be finite, ordered and backed by real throughput.
serve-load-smoke:
	./scripts/serve_load_smoke.sh

# Out-of-core smoke (EXPERIMENTS.md, OOC recipe): a small benchooc run
# whose cache must page and whose trajectory must match in-memory
# bitwise, plus the CLI path — datagen .chunks → pautoclass -chunked
# under a 64KiB budget — compared verbatim against the materialized run.
ooc-smoke:
	./scripts/ooc_smoke.sh

check: vet build test race apicheck
