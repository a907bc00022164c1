// Package serve implements the pautoclassd serving layer: an HTTP API over
// the P-AutoClass engines offering asynchronous training jobs (the
// distributed checkpointed search, resumable across daemon restarts), a
// registry of fitted models, batch prediction against them, and the run
// observability endpoints.
//
// The server owns a state directory. Every job lives in
// <dir>/jobs/<id>/ as three files:
//
//	request.json — the submitted JobRequest (immutable)
//	status.json  — the job's current JobStatus (rewritten on transitions)
//	search.ckpt  — the checkpointed pautoclass.Search state file
//	model.ckpt   — the fitted best classification, once the job is done
//
// Jobs run one at a time on a single runner goroutine; training itself is
// parallel (Config.Procs in-process ranks plus whatever intra-rank
// parallelism the request sets). Close interrupts a running search
// cooperatively through Checkpoint.Interrupt — the group agrees on a stop
// cycle, persists a resumable snapshot and returns ErrInterrupted — and the
// job goes back to the queue, so a restarted server resumes it bitwise
// where it stopped, on the rank count its status recorded.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/autoclass"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pautoclass"
)

// Config configures a Server.
type Config struct {
	// Dir is the state directory; it is created if missing.
	Dir string
	// Procs is the default number of in-process ranks per training run
	// (requests may override it). Default 2.
	Procs int
	// Every is the mid-try checkpoint cadence in cycles. Default 4.
	Every int
	// Logger receives the server's structured logs (request logs, job
	// lifecycle). Nil means slog.Default().
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiles expose internals and cost CPU to collect.
	EnablePprof bool

	// MaxBodyBytes caps request bodies on the data-carrying routes
	// (/v1/jobs, predict); oversized requests get 413 request_too_large.
	// Default 64 MiB.
	MaxBodyBytes int64
	// PredictQueueDepth is each model version's batching-queue capacity;
	// a full queue answers 429 queue_full. Default 64.
	PredictQueueDepth int
	// PredictMaxBatchRows stops coalescing once a batch holds this many
	// rows. Default 4096.
	PredictMaxBatchRows int
	// PredictMaxInflight is the server-wide cap on predict requests being
	// processed or queued; past it new requests get 503 overloaded.
	// Default 256.
	PredictMaxInflight int
	// PredictParallelism shards each scoring pass over this many
	// goroutines per scorer (0 = one). Parallelism never changes the bits.
	PredictParallelism int
	// PredictProcs is the number of warm scorers per model version: that
	// many dispatcher goroutines drain the version's one queue, each
	// scoring its own coalesced batches on its own Predictor. Responses
	// are bitwise identical at every count. Default 1.
	PredictProcs int
	// PredictCacheEntries bounds the response LRU cache; -1 disables it.
	// Default 256.
	PredictCacheEntries int
}

// maxProcs caps the per-request rank count: these are in-process goroutine
// ranks, so very large values only oversubscribe the host.
const maxProcs = 64

// Server is the pautoclassd HTTP handler plus its job runner. Create with
// New, serve it with net/http, stop it with Close.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	log    *slog.Logger
	bootID string // prefix for generated request IDs

	reg          *obs.Registry
	cSubmitted   *obs.Counter
	cDone        *obs.Counter
	cFailed      *obs.Counter
	cInterrupted *obs.Counter
	cResumed     *obs.Counter
	cPredicts    *obs.Counter
	cPredictRows *obs.Counter
	cCacheHits   *obs.Counter
	cCacheMisses *obs.Counter
	cRejected    *obs.Counter
	gInflight    *obs.Gauge
	gPredQueue   *obs.Gauge
	gPredActive  *obs.Gauge
	hBatchRows   *obs.Histogram
	hBatchReqs   *obs.Histogram

	models  *registry
	cache   *respCache
	predInF atomic.Int64 // predict requests admitted and not yet answered

	mu        sync.Mutex
	jobs      map[string]*job
	loaded    map[string]*loadedModel // key: job id or "<model>@v<N>"
	batchers  map[batcherKey]*batcher
	progress  map[string]*progressTracker
	nextID    int
	lastRun   *obs.Run
	running   string // id of the job currently on the runner, "" if idle
	closed    bool
	batcherWG sync.WaitGroup

	queue    chan string
	stopping atomic.Bool
	stop     chan struct{}
	done     chan struct{}
}

type job struct {
	Req    JobRequest
	Status JobStatus
}

type loadedModel struct {
	cls   *autoclass.Classification
	attrs []AttrSpec
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// New opens (or creates) the state directory, re-enqueues every job that
// was queued or running when the previous server stopped, and starts the
// job runner.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("serve: empty state directory")
	}
	if cfg.Procs == 0 {
		cfg.Procs = 2
	}
	if cfg.Procs < 1 || cfg.Procs > maxProcs {
		return nil, fmt.Errorf("serve: procs %d out of range [1,%d]", cfg.Procs, maxProcs)
	}
	if cfg.Every == 0 {
		cfg.Every = 4
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.PredictQueueDepth == 0 {
		cfg.PredictQueueDepth = 64
	}
	if cfg.PredictMaxBatchRows == 0 {
		cfg.PredictMaxBatchRows = 4096
	}
	if cfg.PredictMaxInflight == 0 {
		cfg.PredictMaxInflight = 256
	}
	if cfg.PredictProcs == 0 {
		cfg.PredictProcs = 1
	}
	if cfg.PredictProcs < 1 || cfg.PredictProcs > maxProcs {
		return nil, fmt.Errorf("serve: predict procs %d out of range [1,%d]", cfg.PredictProcs, maxProcs)
	}
	if cfg.PredictCacheEntries == 0 {
		cfg.PredictCacheEntries = 256
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: state directory: %w", err)
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	reg, err := openRegistry(filepath.Join(cfg.Dir, "registry"))
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		log:      log,
		bootID:   "r" + strconv.FormatInt(time.Now().UnixNano(), 36),
		jobs:     make(map[string]*job),
		loaded:   make(map[string]*loadedModel),
		batchers: make(map[batcherKey]*batcher),
		models:   reg,
		cache:    newRespCache(cfg.PredictCacheEntries),
		progress: make(map[string]*progressTracker),
		reg:      obs.NewRegistry(),
		queue:    make(chan string, 1024),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.cSubmitted = s.reg.Counter("serve.jobs.submitted")
	s.cDone = s.reg.Counter("serve.jobs.done")
	s.cFailed = s.reg.Counter("serve.jobs.failed")
	s.cInterrupted = s.reg.Counter("serve.jobs.interrupted")
	s.cResumed = s.reg.Counter("serve.jobs.resumed")
	s.cPredicts = s.reg.Counter("serve.predict.requests")
	s.cPredictRows = s.reg.Counter("serve.predict.rows")
	s.cCacheHits = s.reg.Counter("serve.predict.cache.hits")
	s.cCacheMisses = s.reg.Counter("serve.predict.cache.misses")
	s.cRejected = s.reg.Counter("serve.predict.rejected")
	s.gInflight = s.reg.Gauge(MetricHTTPInflight)
	s.gPredQueue = s.reg.Gauge("serve.predict.queue_depth")
	s.gPredActive = s.reg.Gauge("serve.predict.inflight")
	s.hBatchRows = s.reg.Histogram("serve.predict.batch_rows")
	s.hBatchReqs = s.reg.Histogram("serve.predict.batch_requests")
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mux = s.buildMux()
	go s.runner()
	return s, nil
}

// scan loads every persisted job and re-enqueues unfinished ones in id
// order, so a restarted server picks up exactly where the previous one
// stopped.
func (s *Server) scan() error {
	entries, err := os.ReadDir(filepath.Join(s.cfg.Dir, "jobs"))
	if err != nil {
		return fmt.Errorf("serve: scan jobs: %w", err)
	}
	var ids []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		n, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		ids = append(ids, n)
	}
	sort.Ints(ids)
	for _, n := range ids {
		id := strconv.Itoa(n)
		j := &job{}
		if err := readJSON(s.jobPath(id, "request.json"), &j.Req); err != nil {
			return fmt.Errorf("serve: job %s: %w", id, err)
		}
		if err := readJSON(s.jobPath(id, "status.json"), &j.Status); err != nil {
			// No status yet: the previous server crashed between writing
			// the request and the status. Treat as freshly queued.
			j.Status = JobStatus{ID: id, State: StateQueued, Created: time.Now().UTC()}
		}
		// A job found "running" was cut off mid-run (crash or interrupt);
		// its checkpoint file resumes it.
		if j.Status.State == StateRunning {
			j.Status.State = StateQueued
		}
		s.jobs[id] = j
		if n >= s.nextID {
			s.nextID = n + 1
		}
		if j.Status.State == StateQueued {
			s.cResumed.Add(1)
			s.queue <- id
		}
	}
	if s.nextID == 0 {
		s.nextID = 1
	}
	return nil
}

// Close stops the server: a running search is interrupted cooperatively
// (its job returns to the queue with a resumable snapshot on disk) and the
// runner goroutine exits. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.stopping.Store(true)
	close(s.stop)
	<-s.done
	// Batch dispatchers exit at the next loop turn; requests still waiting
	// on them unblock through s.stop in the predict handler.
	s.batcherWG.Wait()
	return nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) jobDir(id string) string {
	return filepath.Join(s.cfg.Dir, "jobs", id)
}

func (s *Server) jobPath(id, name string) string {
	return filepath.Join(s.jobDir(id), name)
}

// Sentinel submit failures, mapped to error codes at the HTTP layer.
var (
	errShuttingDown = errors.New("serve: server is shutting down")
	errJobQueueFull = errors.New("serve: job queue full")
)

// submit registers a validated request as a new queued job and enqueues
// it. reqID is the submitting HTTP request's ID, stamped into the status so
// job logs and API responses correlate back to the originating request.
func (s *Server) submit(req JobRequest, reqID string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, errShuttingDown
	}
	id := strconv.Itoa(s.nextID)
	s.nextID++
	now := time.Now().UTC()
	j := &job{Req: req, Status: JobStatus{ID: id, State: StateQueued, RequestID: reqID, Created: now, Updated: now}}
	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return JobStatus{}, err
	}
	if err := writeJSON(s.jobPath(id, "request.json"), &j.Req); err != nil {
		return JobStatus{}, err
	}
	if err := writeJSON(s.jobPath(id, "status.json"), &j.Status); err != nil {
		return JobStatus{}, err
	}
	s.jobs[id] = j
	s.cSubmitted.Add(1)
	select {
	case s.queue <- id:
	default:
		return JobStatus{}, errJobQueueFull
	}
	s.log.Info("job submitted", "job_id", id, "request_id", reqID,
		"rows", len(req.Rows), "attrs", len(req.Attrs))
	return j.Status, nil
}

// status returns a copy of the job's status.
func (s *Server) status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.Status, true
}

// setState transitions a job and persists the new status.
func (s *Server) setState(id string, mut func(*JobStatus)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	mut(&j.Status)
	j.Status.Updated = time.Now().UTC()
	// A persistence failure must not lose the in-memory transition; the
	// next transition retries the write.
	_ = writeJSON(s.jobPath(id, "status.json"), &j.Status)
}

// runner executes queued jobs one at a time until Close.
func (s *Server) runner() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case id := <-s.queue:
			s.runJob(id)
		}
	}
}

// runJob trains one job on Procs in-process ranks through the checkpointed
// distributed search, on the rank count its status recorded when it first
// started. Interrupts requeue the job; anything else finishes it.
func (s *Server) runJob(id string) {
	if s.stopping.Load() {
		// Close raced the dequeue; leave the job queued on disk.
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	req := j.Req
	procs := j.Status.Procs
	s.mu.Unlock()

	ds, err := buildDataset(req.Name, req.Attrs, req.Rows)
	if err != nil {
		s.finishJob(id, nil, err)
		return
	}
	cfg, err := searchConfig(req.Search)
	if err != nil {
		s.finishJob(id, nil, err)
		return
	}
	if procs == 0 {
		procs = req.Procs
	}
	if procs == 0 {
		procs = s.cfg.Procs
	}

	o := obs.NewRun(procs)
	o.SetMachineLabel("pautoclassd")
	tracker := newProgressTracker()
	s.setState(id, func(st *JobStatus) {
		st.State = StateRunning
		st.Procs = procs
	})
	s.mu.Lock()
	s.lastRun = o
	s.running = id
	s.progress[id] = tracker
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running = ""
		s.mu.Unlock()
	}()
	s.log.Info("job started", "job_id", id, "request_id", j.Status.RequestID, "procs", procs)

	// The search observer feeds both the live progress endpoint and rank
	// 0's search.* metrics; pautoclass emits events on rank 0 only, so the
	// same options can go to every rank.
	searchObs := fanoutObserver{tracker, o.Rank(0)}
	spec := model.DefaultSpec(ds)
	var res *autoclass.SearchResult
	err = mpi.Run(procs, func(c *mpi.Comm) error {
		opts := pautoclass.DefaultOptions()
		opts.EM = cfg.EM
		opts.Obs = o.Rank(c.Rank())
		opts.SearchObs = searchObs
		opts.Checkpoint = pautoclass.Checkpoint{
			Path:      s.jobPath(id, "search.ckpt"),
			Every:     s.cfg.Every,
			Interrupt: s.stopping.Load,
		}
		r, err := pautoclass.Search(c, ds, spec, cfg, opts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if errors.Is(err, pautoclass.ErrInterrupted) {
		// Shutdown: the snapshot is on disk, the job resumes on restart.
		s.cInterrupted.Add(1)
		s.setState(id, func(st *JobStatus) { st.State = StateQueued })
		s.log.Info("job interrupted", "job_id", id)
		return
	}
	s.finishJob(id, res, err)
}

// finishJob records a terminal state: on success the fitted model is
// persisted and registered; on failure the error is surfaced in the status.
func (s *Server) finishJob(id string, res *autoclass.SearchResult, err error) {
	if err == nil && res != nil {
		ck := autoclass.Checkpoint{Classification: res.Best}
		err = ck.SaveFile(s.jobPath(id, "model.ckpt"))
	}
	if err != nil {
		s.cFailed.Add(1)
		msg := err.Error()
		s.setState(id, func(st *JobStatus) {
			st.State = StateFailed
			st.Error = msg
		})
		s.log.Error("job failed", "job_id", id, "error", msg)
		return
	}
	s.cDone.Add(1)
	s.setState(id, func(st *JobStatus) {
		st.State = StateDone
		st.ModelID = id
		st.J = res.Best.J()
		st.Score = res.BestTry.Score
		st.Cycles = res.Totals.Cycles
		st.Converged = res.BestTry.Converged
	})
	s.log.Info("job done", "job_id", id,
		"j", res.Best.J(), "score", res.BestTry.Score, "cycles", res.Totals.Cycles)
}

// jobModel returns the fitted classification for a done job, loading and
// caching it on first use. The returned classification is shared and
// read-only; every scorer builds or owns its own kernels.
func (s *Server) jobModel(id string) (*loadedModel, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.loaded[id]; ok {
		return m, nil
	}
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: no model %q", id)
	}
	if j.Status.State != StateDone {
		return nil, fmt.Errorf("serve: job %s is %s, not done", id, j.Status.State)
	}
	// The checkpoint restores against the training schema; no rows are
	// needed to score new data.
	schema, err := buildDataset(j.Req.Name, j.Req.Attrs, nil)
	if err != nil {
		return nil, err
	}
	var ck autoclass.Checkpoint
	if err := ck.LoadFile(s.jobPath(id, "model.ckpt"), schema); err != nil {
		return nil, fmt.Errorf("serve: load model %s: %w", id, err)
	}
	m := &loadedModel{cls: ck.Classification, attrs: j.Req.Attrs}
	s.loaded[id] = m
	return m, nil
}

// registryModel loads (and caches) version v of a registered model,
// verifying the artifact against the checksum recorded at publish time.
func (s *Server) registryModel(id string, v int, attrs []AttrSpec) (*loadedModel, error) {
	key := fmt.Sprintf("%s@v%d", id, v)
	s.mu.Lock()
	if m, ok := s.loaded[key]; ok {
		s.mu.Unlock()
		return m, nil
	}
	s.mu.Unlock()

	// Load outside s.mu: artifact reads are slow and the checksum check
	// is CPU work. A racing duplicate load is harmless (last one wins).
	path := s.models.versionPath(id, v)
	art, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: model %s v%d artifact: %w", id, v, err)
	}
	want, ok := s.models.checksum(id, v)
	if !ok {
		return nil, fmt.Errorf("serve: model %s has no version %d", id, v)
	}
	sum := sha256.Sum256(art)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, fmt.Errorf("serve: model %s v%d artifact corrupt: checksum %s, want %s", id, v, got, want)
	}
	schema, err := buildDataset(id, attrs, nil)
	if err != nil {
		return nil, err
	}
	var ck autoclass.Checkpoint
	if err := ck.Load(bytes.NewReader(art), schema); err != nil {
		return nil, fmt.Errorf("serve: restore model %s v%d: %w", id, v, err)
	}
	m := &loadedModel{cls: ck.Classification, attrs: attrs}
	s.mu.Lock()
	s.loaded[key] = m
	s.mu.Unlock()
	return m, nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return atomicfile.Write(path, b)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
