// Command pautoclassd serves P-AutoClass over HTTP: asynchronous training
// jobs on the distributed checkpointed search, a versioned model registry
// with explicit publish/activate semantics, batched and cached prediction
// with admission control, and the run observability endpoints.
//
//	pautoclassd -addr :8080 -dir ./pautoclassd-data -procs 4
//
// Endpoints:
//
//	POST /v1/jobs                     submit a training job (async)
//	GET  /v1/jobs                     list jobs
//	GET  /v1/jobs/{id}                poll a job
//	GET  /v1/jobs/{id}/progress       live BIG_LOOP progress (tries, best, ETA)
//	GET  /v1/models                   list registered models
//	POST /v1/models                   publish a finished job as a model version
//	GET  /v1/models/{id}              one model: versions, active, cache stats
//	POST /v1/models/{id}/activate     switch the serving version
//	POST /v1/models/{id}/predict      batch-score rows (optional version pin;
//	                                  a job ID is not a model: publish it first)
//	GET  /metrics                     Prometheus exposition (JSON under Accept: application/json)
//	GET  /metrics.json                server + last-run metrics (JSON)
//	GET  /debug/trace                 Chrome trace of the last training run
//	GET  /debug/pprof/                Go profiles (with -pprof)
//	GET  /healthz                     liveness
//	GET  /readyz                      readiness (503 while draining)
//
// Every non-2xx response is {"error": {"code", "message"}} with a stable
// machine-readable code; 429/503 backpressure responses add Retry-After.
//
// On SIGINT/SIGTERM a running search is stopped cooperatively: the rank
// group agrees on a stop cycle, persists a resumable snapshot, and the job
// returns to the queue — a restarted daemon resumes it bitwise where it
// stopped. The model registry and its artifacts survive restarts the same
// way: identical versions, identical response bytes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/logx"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "pautoclassd-data", "state directory (jobs, checkpoints, model registry)")
	procs := flag.Int("procs", 2, "default ranks per training run")
	every := flag.Int("every", 4, "mid-try checkpoint cadence in cycles")
	maxBody := flag.Int64("max-body-bytes", 0, "request body cap on data routes (0 = 64 MiB default)")
	predictProcs := flag.Int("predict-procs", 1, "warm scorers per model version, each draining its queue and scoring whole batches")
	predictPar := flag.Int("predict-parallelism", 0, "goroutines per warm scorer's scoring pass (0 = one)")
	predictQueue := flag.Int("predict-queue", 0, "per-model-version predict queue depth (0 = 64 default)")
	predictBatch := flag.Int("predict-batch-rows", 0, "max coalesced rows per scoring pass (0 = 4096 default)")
	predictInflight := flag.Int("predict-inflight", 0, "server-wide predict admission cap (0 = 256 default)")
	predictCache := flag.Int("predict-cache", 0, "response cache entries (0 = 256 default, -1 = off)")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	log, err := logx.New(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pautoclassd:", err)
		os.Exit(1)
	}
	cfg := serve.Config{
		Dir: *dir, Procs: *procs, Every: *every,
		Logger: log, EnablePprof: *enablePprof,
		MaxBodyBytes:        *maxBody,
		PredictProcs:        *predictProcs,
		PredictParallelism:  *predictPar,
		PredictQueueDepth:   *predictQueue,
		PredictMaxBatchRows: *predictBatch,
		PredictMaxInflight:  *predictInflight,
		PredictCacheEntries: *predictCache,
	}
	if err := run(log, *addr, cfg); err != nil {
		log.Error("pautoclassd exiting", "error", err)
		os.Exit(1)
	}
}

func run(log *slog.Logger, addr string, cfg serve.Config) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: addr, Handler: srv}

	errc := make(chan error, 1)
	go func() {
		log.Info("pautoclassd listening", "addr", addr, "dir", cfg.Dir,
			"procs", cfg.Procs, "predict_procs", cfg.PredictProcs, "pprof", cfg.EnablePprof)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Info("draining on signal (running job checkpoints and requeues)", "signal", sig.String())
	case err := <-errc:
		srv.Close()
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Warn("http shutdown", "error", err)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Info("pautoclassd stopped")
	return nil
}
