GO ?= go

.PHONY: build test vet fmtcheck race bench bench-tests check trace-smoke faults fuzz-smoke api apicheck serve-smoke obs-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every Go file stays gofmt-formatted; the CI test job runs the same check.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:" >&2; echo "$$out" >&2; exit 1; fi

# The hybrid engine runs goroutine pools inside every rank; keep the race
# detector on the whole tree so new concurrency is checked on every PR.
# The bitwise-across-Parallelism, chunked-equivalence and FoldRowLogLik
# properties, the block step's sweep equivalence (four goroutines sharing
# one kernel set), and the resume, interrupt and observer search
# properties (every try commits through the concurrent variant scheduler),
# the one exchange per cycle against the paper's messages,
# the vector kernels of model.NormalRun and model.FoldMax against their Go
# loops (masked runs included) and the daemon's warm predict scorers
# (several dispatchers on one queue), then run at several GOMAXPROCS
# values, so a one-core host cannot hide a race; the exp kernel's
# self-checks must fall back when FMA is off, while the eight-lane per-row
# log, which math.Log's FMA-free code backs, stays on; the log names the vector
# stages this host takes (the eight-lane kernels need AVX-512F, and their
# tests skip without it); the bitwise tests hold with the compiler free to
# use FMA and AVX2 in Go code (GOAMD64=v3); the exp kernel's non-amd64
# fallback must keep compiling; and on 386, where no vector kernel
# builds, the Go loops run as the whole path against the unfused oracle,
# the per-row test oracle and the per-row WtsOnly engine (and the kernel
# gate holds them no slower than that oracle), the column store and the
# chunk file's unsafe views run on a 32-bit platform, and atomicfile
# swaps through 386's own renameat2 number.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 \
		-run 'Concurrent|AcrossParallelism|ParallelismInvariance|ParallelismBitwise|FusedTraining|ChunkedMatches|ChunkedAligned|FoldRowLogLik|RaceFree|HybridTrajectory|PredictRanksBitwise|Resum|Interrupt|SearchObserver|KillAndResume|OneExchange|Sweeps|NormalRunScore|FoldLanes|FoldMax|ServeBatchingBitwise|ServePredictKillRestart' \
		./internal/model ./internal/autoclass ./internal/pautoclass ./internal/serve
	GODEBUG=cpu.fma=off $(GO) test -v -run 'Exp|LogSumRecip' ./internal/stats
	$(GO) test -v -run 'PathEnabled|Vectorized|ExpSelfCheck' ./internal/stats ./internal/model
	GOAMD64=v3 $(GO) test ./internal/stats ./internal/model ./internal/autoclass
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/model ./internal/stats ./internal/dataset ./internal/atomicfile
	GOARCH=386 $(GO) test -run 'Sweeps|NormalRun|FoldLanes|Normaliz|Chunked|Parallelism|Bitwise|Kernel|BlockedMatchesReference' ./internal/autoclass
	GOARCH=386 $(GO) test -run 'WtsOnlyEqualsFull' ./internal/pautoclass

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark's vet and tests, as the CI bench-tests job runs them.
# cmd/bench is a module of its own, so `go build ./...`, `go vet ./...`
# and `go test ./...` never compile it: a deletion under internal/ can
# break the benchmark while every other target stays green.
bench-tests:
	cd cmd/bench && $(GO) vet . && $(GO) test .

# Local equivalent of the CI trace-smoke job: a traced 4-rank Meiko run
# whose dataset, Chrome trace, events and metrics land in a fresh temporary
# directory, printed at the end and kept for inspection.
trace-smoke:
	@dir="$$(mktemp -d)" && \
	$(GO) run ./cmd/datagen -workload paper -n 2000 -seed 7 -o "$$dir/smoke.txt" && \
	$(GO) run ./cmd/pautoclass -data "$$dir/smoke.txt" -procs 4 -start-j 4 \
		-tries 1 -max-cycles 10 -machine meiko \
		-trace-out "$$dir/trace.json" -events-out "$$dir/events.jsonl" \
		-metrics-out "$$dir/metrics.json" -phase-profile && \
	echo "trace-smoke outputs: $$dir"

# Fault-tolerance suite: fault-injection matrix (every collective ×
# transport with a rank killed mid-collective and no deadline, so the
# launcher's crash cascade alone releases the group), deadline semantics
# and the timeout counter, the kill-and-resume bitwise-identity test, and
# state writes that fail mid-search, in an SPMD search and in a daemon job.
# The hard -timeout makes a hang a failure, not a stall.
faults:
	$(GO) test -race -timeout 180s \
		-run 'Fault|Flaky|Timeout|Deadline|Race|Checkpoint|Resume|KillAndResume' \
		./internal/mpi ./internal/autoclass ./internal/pautoclass ./internal/serve ./cmd/pautoclass

# Fuzz smoke: every native fuzz target of the repository for 15 s each.
# Their seed corpora under testdata/fuzz run as plain tests in `make test`;
# a crasher found here is a bug to fix, and its input joins the corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSearchState$$' -fuzztime 15s ./internal/autoclass
	$(GO) test -run '^$$' -fuzz '^FuzzOpenChunked$$' -fuzztime 15s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSVWith$$' -fuzztime 15s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 15s ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzTCPFrame$$' -fuzztime 15s ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzOpenRegistry$$' -fuzztime 15s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzPredictRequest$$' -fuzztime 15s ./internal/serve

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
# The daemon binary is built into a temporary directory that is removed
# on exit.
serve-smoke:
	@dir="$$(mktemp -d)" && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/pautoclassd" ./cmd/pautoclassd && \
	./scripts/serve_smoke.sh "$$dir/pautoclassd"

# The telemetry surface rides in the same daemon smoke; the alias names it
# for the observability acceptance runbook (EXPERIMENTS.md, OBS recipe).
obs-smoke: serve-smoke

check: fmtcheck vet build test race apicheck bench-tests
