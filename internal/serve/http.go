package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// AttrSpec describes one dataset column on the wire.
type AttrSpec struct {
	Name string `json:"name"`
	// Type is "real" or "discrete".
	Type string `json:"type"`
	// Levels names a discrete attribute's categories; empty for real.
	Levels []string `json:"levels,omitempty"`
}

// SearchSpec overrides the paper-default search settings per job. Zero
// fields keep the defaults.
type SearchSpec struct {
	StartJList []int   `json:"start_j_list,omitempty"`
	Tries      int     `json:"tries,omitempty"`
	Seed       *uint64 `json:"seed,omitempty"`
	MaxCycles  int     `json:"max_cycles,omitempty"`
	RelDelta   float64 `json:"rel_delta,omitempty"`
	// Parallelism is the intra-rank worker count of each rank's engine
	// (see autoclass.Config.Parallelism).
	Parallelism int `json:"parallelism,omitempty"`
}

// JobRequest is the POST /v1/jobs body: the training data inline (null
// encodes a missing value — JSON has no NaN) plus optional search and
// machine-shape overrides.
type JobRequest struct {
	Name  string       `json:"name"`
	Attrs []AttrSpec   `json:"attrs"`
	Rows  [][]*float64 `json:"rows"`
	// Search overrides the default BIG_LOOP configuration.
	Search *SearchSpec `json:"search,omitempty"`
	// Procs overrides the server's default rank count for this job.
	Procs int `json:"procs,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// RequestID is the submitting HTTP request's ID (X-Request-Id), kept
	// so logs and statuses correlate back to the original submission.
	RequestID string `json:"request_id,omitempty"`
	// Procs is the rank count the job trains on, fixed when it first
	// starts: the request's, else the server's default at that time. A
	// restarted server resumes the job on it, because the job's search
	// state file resumes only on the rank count that wrote it.
	Procs int    `json:"procs,omitempty"`
	Error string `json:"error,omitempty"`
	// Fitted-model summary, present once done.
	J         int       `json:"j,omitempty"`
	Score     float64   `json:"score,omitempty"`
	Cycles    int       `json:"cycles,omitempty"`
	Converged bool      `json:"converged,omitempty"`
	Created   time.Time `json:"created"`
	Updated   time.Time `json:"updated"`
}

// PredictRequest is the POST /v1/models/{id}/predict body. Rows follow the
// model's training schema; null encodes a missing value.
type PredictRequest struct {
	Rows [][]*float64 `json:"rows"`
	// Version pins a registered model version; 0 means the active one.
	Version int `json:"version,omitempty"`
	// Parallelism is accepted for backward compatibility and ignored: the
	// server owns scoring parallelism (Config.PredictParallelism), and
	// parallelism never changes the result bits.
	Parallelism int `json:"parallelism,omitempty"`
}

// PublishRequest is the POST /v1/models body: copy a finished job's fitted
// model into the registry as the next version of ID.
type PublishRequest struct {
	ID    string `json:"id"`
	JobID string `json:"job_id"`
	// Activate controls whether the new version starts serving unpinned
	// traffic. Nil means true; a model's first version always activates.
	Activate *bool `json:"activate,omitempty"`
}

// PublishResponse acknowledges a publish.
type PublishResponse struct {
	ID      string       `json:"id"`
	Version ModelVersion `json:"version"`
	// Active is the version now serving unpinned traffic.
	Active int `json:"active"`
}

// ActivateRequest is the POST /v1/models/{id}/activate body.
type ActivateRequest struct {
	Version int `json:"version"`
}

// ModelInfo is the GET /v1/models[/{id}] element: the registry entry plus
// live serving stats.
type ModelInfo struct {
	ID       string         `json:"id"`
	Active   int            `json:"active"`
	Versions []ModelVersion `json:"versions"`
	// WarmCaches counts the live per-version warm kernel caches.
	WarmCaches int `json:"warm_caches"`
	// Cache is the model's response-cache accounting.
	Cache CacheStats `json:"cache"`
}

// PredictResponse mirrors autoclass.Prediction.
type PredictResponse struct {
	N           int         `json:"n"`
	J           int         `json:"j"`
	MAP         []int       `json:"map"`
	LogLik      float64     `json:"loglik"`
	Memberships [][]float64 `json:"memberships"`
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	// Every route goes through instrument, which uses the pattern string
	// (not the raw path) as the metric route label. go.mod targets 1.22,
	// so the pattern is passed explicitly rather than read from the
	// request (http.Request.Pattern is 1.23+).
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	route("POST /v1/jobs", s.handleSubmit)
	route("GET /v1/jobs", s.handleJobs)
	route("GET /v1/jobs/{id}", s.handleJob)
	route("GET /v1/jobs/{id}/progress", s.handleProgress)
	route("GET /v1/models", s.handleModels)
	route("POST /v1/models", s.handlePublish)
	route("GET /v1/models/{id}", s.handleModel)
	route("POST /v1/models/{id}/activate", s.handleActivate)
	route("POST /v1/models/{id}/predict", s.handlePredict)
	route("GET /metrics", s.handleMetrics)
	route("GET /metrics.json", s.handleMetricsJSON)
	route("GET /debug/trace", s.handleTrace)
	route("GET /healthz", s.handleHealthz)
	route("GET /readyz", s.handleReadyz)
	if s.cfg.EnablePprof {
		// Left uninstrumented: profiles stream for their whole duration
		// and would distort the latency histograms.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeBody(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", obs.ContentTypeJSON)
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// decodeBody reads a JSON request body under the server's size limit,
// writing the error response itself on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		bodyError(w, err)
		return false
	}
	return true
}

// readBody reads a whole request body under the server's size limit,
// writing the error response itself on failure.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		bodyError(w, err)
		return nil, false
	}
	return body, true
}

// bodyError answers a request body that failed to read or decode: 413
// past the size limit, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, CodeRequestTooLarge,
			"request body exceeds the %d byte limit", mbe.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, CodeInvalidRequest, "decode request: %v", err)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := validateJob(&req); err != nil {
		httpError(w, http.StatusBadRequest, CodeInvalidRequest, "%v", err)
		return
	}
	st, err := s.submit(req, w.Header().Get("X-Request-Id"))
	if err != nil {
		code := CodeShuttingDown
		if errors.Is(err, errJobQueueFull) {
			code = CodeQueueFull
		}
		retryAfter(w, 1)
		httpError(w, http.StatusServiceUnavailable, code, "%v", err)
		return
	}
	writeBody(w, http.StatusAccepted, st)
}

// validateJob rejects requests the runner could only fail on, so bad input
// surfaces synchronously instead of as a failed job.
func validateJob(req *JobRequest) error {
	if req.Name == "" {
		req.Name = "job"
	}
	if len(req.Rows) == 0 {
		return errors.New("no rows")
	}
	if req.Procs < 0 || req.Procs > maxProcs {
		return fmt.Errorf("procs %d out of range [1,%d]", req.Procs, maxProcs)
	}
	if _, err := searchConfig(req.Search); err != nil {
		return err
	}
	// Building the dataset validates the schema and every value (discrete
	// levels in range, row lengths, at least one attribute).
	_, err := buildDataset(req.Name, req.Attrs, req.Rows)
	return err
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		list = append(list, j.Status)
	}
	s.mu.Unlock()
	sort.Slice(list, func(a, b int) bool {
		na, _ := strconv.Atoi(list[a].ID)
		nb, _ := strconv.Atoi(list[b].ID)
		return na < nb
	})
	writeBody(w, http.StatusOK, map[string]any{"jobs": list})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.status(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, CodeNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeBody(w, http.StatusOK, st)
}

// handlePredict is the batched, cached, admission-controlled scoring
// route. Request flow: decode the body (decodePredict) → resolve the
// servable model version → response-cache lookup → admission (global
// in-flight cap, per-version bounded queue) → coalesced scoring on one of
// the version's warm scorers → cache fill.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := decodePredict(body)
	if err != nil {
		bodyError(w, err)
		return
	}
	if req.n == 0 {
		httpError(w, http.StatusBadRequest, CodeInvalidRequest, "no rows")
		return
	}
	if req.version < 0 {
		httpError(w, http.StatusBadRequest, CodeInvalidRequest, "version %d < 0", req.version)
		return
	}

	v, attrs, found := s.models.resolve(id, req.version)
	switch {
	case !found:
		httpError(w, http.StatusNotFound, CodeNotFound,
			"no model %q; publish a finished job with POST /v1/models first", id)
		return
	case v == 0 && req.version != 0:
		httpError(w, http.StatusNotFound, CodeNotFound, "model %q has no version %d", id, req.version)
		return
	case v == 0:
		httpError(w, http.StatusConflict, CodeModelNotReady, "model %q has no active version", id)
		return
	}
	m, err := s.registryModel(id, v, attrs)
	if err != nil {
		httpError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}

	ds, err := req.dataset(m.attrs)
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeInvalidRequest, "%v", err)
		return
	}

	ck := cacheKey{model: id, version: v, rows: hashRows(ds)}
	if hit := s.cache.get(ck); hit != nil {
		s.cCacheHits.Add(1)
		s.writePredict(w, hit, "hit")
		return
	}
	s.cCacheMisses.Add(1)

	if s.stopping.Load() {
		retryAfter(w, 1)
		httpError(w, http.StatusServiceUnavailable, CodeShuttingDown, "server is shutting down")
		return
	}
	inflight := s.predInF.Add(1)
	defer s.predInF.Add(-1)
	s.gPredActive.Add(1)
	defer s.gPredActive.Add(-1)
	if int(inflight) > s.cfg.PredictMaxInflight {
		s.cRejected.Add(1)
		retryAfter(w, 1)
		httpError(w, http.StatusServiceUnavailable, CodeOverloaded,
			"predict capacity exhausted (%d requests in flight)", inflight-1)
		return
	}

	b, err := s.batcherFor(batcherKey{model: id, version: v}, m)
	if err != nil {
		retryAfter(w, 1)
		httpError(w, http.StatusServiceUnavailable, CodeShuttingDown, "%v", err)
		return
	}
	job := &predictJob{ds: ds, resp: make(chan predictOut, 1)}
	select {
	case b.queue <- job:
		s.gPredQueue.Add(1)
	default:
		s.cRejected.Add(1)
		retryAfter(w, 1)
		httpError(w, http.StatusTooManyRequests, CodeQueueFull,
			"predict queue for model %q is full", id)
		return
	}
	var out predictOut
	select {
	case out = <-job.resp:
	case <-s.stop:
		retryAfter(w, 1)
		httpError(w, http.StatusServiceUnavailable, CodeShuttingDown, "server is shutting down")
		return
	}
	if out.err != nil {
		httpError(w, http.StatusInternalServerError, CodeInternal, "%v", out.err)
		return
	}
	s.cPredicts.Add(1)
	s.cPredictRows.Add(float64(out.resp.N))
	resp, err := json.Marshal(out.resp)
	if err != nil {
		httpError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	// Trailing newline matches json.Encoder output, so cached replays are
	// byte-identical to the pre-cache wire format.
	resp = append(resp, '\n')
	s.cache.put(ck, resp)
	s.writePredict(w, resp, "miss")
}

// writePredict writes a prediction body with its cache disposition.
func (s *Server) writePredict(w http.ResponseWriter, body []byte, disposition string) {
	w.Header().Set("X-Cache", disposition)
	w.Header().Set("Content-Type", obs.ContentTypeJSON)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handlePublish copies a finished job's fitted model into the registry.
func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var req PublishRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := validModelID(req.ID); err != nil {
		httpError(w, http.StatusBadRequest, CodeInvalidRequest, "%v", err)
		return
	}
	st, ok := s.status(req.JobID)
	if !ok {
		httpError(w, http.StatusNotFound, CodeNotFound, "no job %q", req.JobID)
		return
	}
	if st.State != StateDone {
		httpError(w, http.StatusConflict, CodeModelNotReady, "job %s is %s, not done", req.JobID, st.State)
		return
	}
	s.mu.Lock()
	attrs := append([]AttrSpec(nil), s.jobs[req.JobID].Req.Attrs...)
	s.mu.Unlock()
	activate := req.Activate == nil || *req.Activate
	ver, active, err := s.models.publish(req.ID, req.JobID, attrs, st.J, st.Score,
		s.jobPath(req.JobID, "model.ckpt"), activate)
	if err != nil {
		httpError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	if active == ver.Version {
		// The active version changed; cached responses for the old one
		// must not answer unpinned requests.
		s.cache.invalidate(req.ID)
	}
	s.log.Info("model published", "model", req.ID, "version", ver.Version,
		"job_id", req.JobID, "active", active)
	writeBody(w, http.StatusCreated, PublishResponse{ID: req.ID, Version: ver, Active: active})
}

// handleActivate switches which version serves unpinned predict traffic.
func (s *Server) handleActivate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req ActivateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Version < 1 {
		httpError(w, http.StatusBadRequest, CodeInvalidRequest, "version %d < 1", req.Version)
		return
	}
	if _, ok := s.models.get(id); !ok {
		httpError(w, http.StatusNotFound, CodeNotFound, "no model %q", id)
		return
	}
	if err := s.models.activate(id, req.Version); err != nil {
		httpError(w, http.StatusNotFound, CodeNotFound, "%v", err)
		return
	}
	s.cache.invalidate(id)
	s.log.Info("model activated", "model", id, "version", req.Version)
	m, _ := s.models.get(id)
	writeBody(w, http.StatusOK, s.modelInfo(m))
}

func (s *Server) modelInfo(m regModel) ModelInfo {
	return ModelInfo{
		ID:         m.ID,
		Active:     m.Active,
		Versions:   m.Versions,
		WarmCaches: s.warmBatchers(m.ID),
		Cache:      s.cache.stats(m.ID),
	}
}

// handleModels lists the registry.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	entries := s.models.list()
	infos := make([]ModelInfo, len(entries))
	for i, m := range entries {
		infos[i] = s.modelInfo(m)
	}
	writeBody(w, http.StatusOK, map[string]any{"models": infos})
}

// handleModel details one registry entry with its serving stats.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, ok := s.models.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, CodeNotFound, "no model %q", id)
		return
	}
	writeBody(w, http.StatusOK, s.modelInfo(m))
}

// handleMetrics serves the Prometheus text exposition by default; clients
// that ask for JSON (Accept: application/json) get the legacy snapshot
// shape, also available unconditionally at /metrics.json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		s.handleMetricsJSON(w, r)
		return
	}
	s.mu.Lock()
	run := s.lastRun
	s.mu.Unlock()
	// The server registry and the last run's per-rank registries export as
	// one scrape, distinguished by fixed labels. Metric reads are atomic,
	// so scraping during a live run is safe.
	exps := []obs.Expo{{Reg: s.reg, Labels: []obs.Label{{Name: "registry", Value: "server"}}}}
	for i := 0; i < run.Ranks(); i++ {
		exps = append(exps, obs.Expo{Reg: run.Rank(i).Registry(), Labels: []obs.Label{
			{Name: "registry", Value: "run"},
			{Name: "rank", Value: strconv.Itoa(i)},
		}})
	}
	w.Header().Set("Content-Type", obs.ContentTypeText)
	w.WriteHeader(http.StatusOK)
	// Write errors mean a dropped scrape connection; nothing to do.
	_ = obs.WritePrometheus(w, exps...)
}

// handleMetricsJSON serves the JSON snapshot shape /metrics used before
// the Prometheus exposition existed.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	run := s.lastRun
	s.mu.Unlock()
	body := struct {
		Server obs.Snapshot  `json:"server"`
		Run    *obs.Snapshot `json:"run,omitempty"`
	}{Server: s.reg.Snapshot()}
	if run != nil {
		// Counters aggregate through atomics, so snapshotting a live
		// run's registry is safe.
		snap := run.Aggregate().Snapshot()
		body.Run = &snap
	}
	writeBody(w, http.StatusOK, body)
}

// handleProgress serves the live BIG_LOOP progress of a job.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	jp, ok := s.jobProgress(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, CodeNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeBody(w, http.StatusOK, jp)
	// Progress is polled while a search runs; push the snapshot out
	// immediately rather than letting it sit in the server's write buffer.
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	run := s.lastRun
	busy := s.running != ""
	s.mu.Unlock()
	if run == nil {
		httpError(w, http.StatusNotFound, CodeNotFound, "no training run has executed yet")
		return
	}
	if busy {
		// The tracer's event tracks are append-only without locks; export
		// only between runs.
		httpError(w, http.StatusConflict, CodeConflict, "a job is running; retry when it finishes")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	run.WriteChromeTrace(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	running := s.running
	s.mu.Unlock()
	writeBody(w, http.StatusOK, map[string]any{"status": "ok", "jobs": n, "running": running})
}

// handleReadyz reports readiness: the job store is loaded (true once New
// returns) and the runner still accepts work. A shutting-down server
// returns 503 so load balancers drain it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed || s.stopping.Load() {
		writeBody(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "shutting down"})
		return
	}
	writeBody(w, http.StatusOK, map[string]any{"ready": true})
}

// buildDataset materializes a wire-format table as an engine dataset. A nil
// rows slice builds a schema-only dataset (model restore needs no rows).
func buildDataset(name string, specs []AttrSpec, rows [][]*float64) (*dataset.Dataset, error) {
	if len(specs) == 0 {
		return nil, errors.New("no attributes")
	}
	attrs := make([]dataset.Attribute, len(specs))
	for k, a := range specs {
		attr := dataset.Attribute{Name: a.Name, Levels: a.Levels}
		switch a.Type {
		case "real":
			attr.Type = dataset.Real
		case "discrete":
			attr.Type = dataset.Discrete
		default:
			return nil, fmt.Errorf("attribute %d (%q): unknown type %q (want \"real\" or \"discrete\")", k, a.Name, a.Type)
		}
		attrs[k] = attr
	}
	ds, err := dataset.New(name, attrs)
	if err != nil {
		return nil, err
	}
	buf := make([]float64, len(attrs))
	for i, row := range rows {
		if len(row) != len(attrs) {
			return nil, fmt.Errorf("row %d has %d values, schema has %d attributes", i, len(row), len(attrs))
		}
		for k, v := range row {
			if v == nil {
				buf[k] = dataset.Missing
			} else {
				buf[k] = *v
			}
		}
		if err := ds.AppendRow(buf); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return ds, nil
}

// searchConfig maps the wire overrides onto the paper-default search
// configuration.
func searchConfig(sp *SearchSpec) (autoclass.SearchConfig, error) {
	cfg := autoclass.DefaultSearchConfig()
	if sp == nil {
		return cfg, nil
	}
	if len(sp.StartJList) > 0 {
		cfg.StartJList = append([]int(nil), sp.StartJList...)
	}
	if sp.Tries > 0 {
		cfg.Tries = sp.Tries
	}
	if sp.Seed != nil {
		cfg.Seed = *sp.Seed
	}
	if sp.MaxCycles > 0 {
		cfg.EM.MaxCycles = sp.MaxCycles
	}
	if sp.RelDelta > 0 {
		cfg.EM.RelDelta = sp.RelDelta
	}
	if sp.Parallelism != 0 {
		cfg.EM.Parallelism = sp.Parallelism
	}
	for _, j := range cfg.StartJList {
		if j < 1 || j > maxStartJ {
			return cfg, fmt.Errorf("start_j_list entry %d out of range [1,%d]", j, maxStartJ)
		}
	}
	if sp.Tries < 0 || sp.MaxCycles < 0 || sp.RelDelta < 0 {
		return cfg, errors.New("negative search setting")
	}
	if cfg.Tries > maxSearchVariants/len(cfg.StartJList) {
		return cfg, fmt.Errorf("search of %d start J × %d tries exceeds %d variants",
			len(cfg.StartJList), cfg.Tries, maxSearchVariants)
	}
	return cfg, nil
}
