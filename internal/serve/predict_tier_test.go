package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
)

// rawPost posts a JSON body and returns status, headers, and raw bytes.
func rawPost(t *testing.T, client *http.Client, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

// assertEnvelope checks the structured error envelope and its expected
// stable code.
func assertEnvelope(t *testing.T, body []byte, wantCode string) {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not an envelope: %v (%s)", err, body)
	}
	if env.Error.Code != wantCode {
		t.Errorf("error code %q, want %q (%s)", env.Error.Code, wantCode, body)
	}
	if env.Error.Message == "" {
		t.Errorf("empty error message: %s", body)
	}
}

// trainDone submits a job and waits for it to finish, returning its ID.
func trainDone(t *testing.T, client *http.Client, base string, n int, seed uint64) string {
	t.Helper()
	req, _ := paperJob(t, n, seed, quickSpec)
	var st JobStatus
	if code := postJSON(t, client, base+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, client, base, st.ID, StateDone, 2*time.Minute)
	return st.ID
}

// predictBody builds a predict request over n held-out paper rows.
func predictBody(t *testing.T, n int, seed uint64) PredictRequest {
	t.Helper()
	ho, err := datagen.Paper(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	_, rows := wireRows(ho)
	return PredictRequest{Rows: rows}
}

// TestServeErrorEnvelope asserts the structured error envelope (stable
// code + message + legacy string field) on every failure class, including
// the backpressure statuses with their Retry-After headers.
func TestServeErrorEnvelope(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Procs: 1, MaxBodyBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	// invalid_request: malformed JSON.
	resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	assertEnvelope(t, body, CodeInvalidRequest)

	// request_too_large: a job body past MaxBodyBytes answers 413.
	big, _ := paperJob(t, 500, 7, quickSpec)
	code, _, body := rawPost(t, client, ts.URL+"/v1/jobs", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", code)
	}
	assertEnvelope(t, body, CodeRequestTooLarge)

	// not_found on jobs and models.
	resp, err = client.Get(ts.URL + "/v1/jobs/999")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d", resp.StatusCode)
	}
	assertEnvelope(t, body, CodeNotFound)

	code, _, body = rawPost(t, client, ts.URL+"/v1/models/nope/activate", ActivateRequest{Version: 1})
	if code != http.StatusNotFound {
		t.Fatalf("activate missing model: status %d", code)
	}
	assertEnvelope(t, body, CodeNotFound)

	// invalid_request: publishing under a reserved numeric ID.
	code, _, body = rawPost(t, client, ts.URL+"/v1/models", PublishRequest{ID: "123", JobID: "1"})
	if code != http.StatusBadRequest {
		t.Fatalf("numeric model id: status %d", code)
	}
	assertEnvelope(t, body, CodeInvalidRequest)

	// not_found: publishing a job that does not exist.
	code, _, body = rawPost(t, client, ts.URL+"/v1/models", PublishRequest{ID: "m", JobID: "999"})
	if code != http.StatusNotFound {
		t.Fatalf("publish missing job: status %d", code)
	}
	assertEnvelope(t, body, CodeNotFound)
}

// TestServeAdmissionControl drives the two backpressure paths
// deterministically: the server-wide in-flight cap (503 overloaded) and a
// full per-model batching queue (429 queue_full), both with Retry-After.
func TestServeAdmissionControl(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Procs: 1,
		PredictMaxInflight: 2, PredictQueueDepth: 2, PredictCacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	jobID := trainDone(t, client, ts.URL, 120, 11)
	code, _, _ := rawPost(t, client, ts.URL+"/v1/models",
		PublishRequest{ID: "prod", JobID: jobID})
	if code != http.StatusCreated {
		t.Fatalf("publish: status %d", code)
	}
	req := predictBody(t, 40, 91)

	// Saturate the global admission counter; the next request bounces.
	s.predInF.Add(int64(s.cfg.PredictMaxInflight))
	code, hdr, body := rawPost(t, client, ts.URL+"/v1/models/prod/predict", req)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over inflight cap: status %d", code)
	}
	assertEnvelope(t, body, CodeOverloaded)
	if hdr.Get("Retry-After") == "" {
		t.Error("overloaded response missing Retry-After")
	}
	s.predInF.Add(-int64(s.cfg.PredictMaxInflight))

	// Fill a dispatcherless batcher's queue; enqueue must bounce 429.
	m, err := s.registryModel("prod", 1, s.mustAttrs(t, "prod"))
	if err != nil {
		t.Fatal(err)
	}
	stuck := &batcher{s: s, key: batcherKey{model: "prod", version: 1},
		cls: m.cls, queue: make(chan *predictJob, s.cfg.PredictQueueDepth)}
	for i := 0; i < s.cfg.PredictQueueDepth; i++ {
		stuck.queue <- &predictJob{resp: make(chan predictOut, 1)}
	}
	s.mu.Lock()
	s.batchers[stuck.key] = stuck
	s.mu.Unlock()
	code, hdr, body = rawPost(t, client, ts.URL+"/v1/models/prod/predict", req)
	if code != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d", code)
	}
	assertEnvelope(t, body, CodeQueueFull)
	if hdr.Get("Retry-After") == "" {
		t.Error("queue_full response missing Retry-After")
	}

	// shutting_down after Close (the handler keeps answering).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	code, _, body = rawPost(t, client, ts.URL+"/v1/models/prod/predict", req)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-close predict: status %d", code)
	}
	assertEnvelope(t, body, CodeShuttingDown)
}

// mustAttrs pulls a registered model's schema.
func (s *Server) mustAttrs(t *testing.T, id string) []AttrSpec {
	t.Helper()
	m, ok := s.models.get(id)
	if !ok {
		t.Fatalf("no model %q", id)
	}
	return m.Attrs
}

// TestServeRegistryLifecycle covers publish/activate semantics, the
// listing endpoints, version pinning, and the refusal of bare job-ID
// predicts.
func TestServeRegistryLifecycle(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	job1 := trainDone(t, client, ts.URL, 150, 31)
	job2 := trainDone(t, client, ts.URL, 150, 57)

	// Publishing a still-working job is rejected; done jobs publish.
	var pub PublishResponse
	code, _, body := rawPost(t, client, ts.URL+"/v1/models", PublishRequest{ID: "prod", JobID: job1})
	if code != http.StatusCreated {
		t.Fatalf("publish v1: status %d (%s)", code, body)
	}
	if err := json.Unmarshal(body, &pub); err != nil {
		t.Fatal(err)
	}
	if pub.Version.Version != 1 || pub.Active != 1 || pub.Version.JobID != job1 {
		t.Fatalf("publish v1 returned %+v", pub)
	}
	if pub.Version.Checksum == "" {
		t.Error("published version has no checksum")
	}

	// Second publish without activation: v2 exists, v1 still serves.
	off := false
	code, _, body = rawPost(t, client, ts.URL+"/v1/models",
		PublishRequest{ID: "prod", JobID: job2, Activate: &off})
	if code != http.StatusCreated {
		t.Fatalf("publish v2: status %d", code)
	}
	json.Unmarshal(body, &pub)
	if pub.Version.Version != 2 || pub.Active != 1 {
		t.Fatalf("publish v2 returned %+v", pub)
	}

	// Listing and details agree.
	var list struct {
		Models []ModelInfo `json:"models"`
	}
	if code := getJSON(t, client, ts.URL+"/v1/models", &list); code != http.StatusOK {
		t.Fatalf("list models: %d", code)
	}
	if len(list.Models) != 1 || list.Models[0].ID != "prod" ||
		len(list.Models[0].Versions) != 2 || list.Models[0].Active != 1 {
		t.Fatalf("model list %+v", list.Models)
	}
	var info ModelInfo
	if code := getJSON(t, client, ts.URL+"/v1/models/prod", &info); code != http.StatusOK {
		t.Fatalf("get model: %d", code)
	}
	if info.Active != 1 || len(info.Versions) != 2 {
		t.Fatalf("model info %+v", info)
	}

	// Unpinned predict serves v1; pinned predicts reach both versions. A
	// bare job ID is not a model.
	req := predictBody(t, 80, 77)
	codeU, _, bodyU := rawPost(t, client, ts.URL+"/v1/models/prod/predict", req)
	if codeU != http.StatusOK {
		t.Fatalf("unpinned predict: %d (%s)", codeU, bodyU)
	}
	pin1 := req
	pin1.Version = 1
	_, _, bodyP1 := rawPost(t, client, ts.URL+"/v1/models/prod/predict", pin1)
	if !bytes.Equal(bodyU, bodyP1) {
		t.Error("unpinned response differs from the pinned active version")
	}
	pin2 := req
	pin2.Version = 2
	codeP2, _, bodyP2 := rawPost(t, client, ts.URL+"/v1/models/prod/predict", pin2)
	if codeP2 != http.StatusOK {
		t.Fatalf("pinned v2 predict: %d", codeP2)
	}
	if bytes.Equal(bodyP2, bodyP1) {
		t.Error("v1 and v2 (different training jobs) scored identically; suspicious")
	}
	codeJ, _, bodyJ := rawPost(t, client, ts.URL+"/v1/models/"+job2+"/predict", req)
	if codeJ != http.StatusNotFound {
		t.Fatalf("bare job-ID predict: %d, want 404", codeJ)
	}
	assertEnvelope(t, bodyJ, CodeNotFound)
	if !bytes.Contains(bodyJ, []byte("POST /v1/models")) {
		t.Errorf("bare job-ID predict does not point at publishing: %s", bodyJ)
	}

	// Activation flips unpinned traffic to v2 (and the cache with it).
	code, _, _ = rawPost(t, client, ts.URL+"/v1/models/prod/activate", ActivateRequest{Version: 2})
	if code != http.StatusOK {
		t.Fatalf("activate v2: %d", code)
	}
	_, _, bodyU2 := rawPost(t, client, ts.URL+"/v1/models/prod/predict", req)
	if !bytes.Equal(bodyU2, bodyP2) {
		t.Error("post-activation unpinned response is not the v2 result (stale cache?)")
	}

	// Refusal paths: bad pin, pin on a job ID, model with no active
	// version.
	pinBad := req
	pinBad.Version = 9
	code, _, body = rawPost(t, client, ts.URL+"/v1/models/prod/predict", pinBad)
	if code != http.StatusNotFound {
		t.Fatalf("bad version pin: %d", code)
	}
	assertEnvelope(t, body, CodeNotFound)
	pinJob := req
	pinJob.Version = 1
	code, _, body = rawPost(t, client, ts.URL+"/v1/models/"+job1+"/predict", pinJob)
	if code != http.StatusNotFound {
		t.Fatalf("version pin on job id: %d", code)
	}
	assertEnvelope(t, body, CodeNotFound)
	code, _, _ = rawPost(t, client, ts.URL+"/v1/models",
		PublishRequest{ID: "staged", JobID: job1, Activate: &off})
	if code != http.StatusCreated {
		t.Fatalf("publish staged: %d", code)
	}
	// First publish always activates (nothing else can serve); deactivate
	// is not a thing, so build the no-active case directly.
	s.models.mu.Lock()
	s.models.st.Models["staged"].Active = 0
	s.models.mu.Unlock()
	code, _, body = rawPost(t, client, ts.URL+"/v1/models/staged/predict", req)
	if code != http.StatusConflict {
		t.Fatalf("no active version: %d", code)
	}
	assertEnvelope(t, body, CodeModelNotReady)
}

// TestServeBatchingBitwise is the tentpole acceptance test: concurrent
// clients with distinct request shapes force the batcher to coalesce, and
// every response must be byte-identical to the same request scored alone
// on an idle server — on one warm scorer, and on two and three scorers
// draining the same queue.
func TestServeBatchingBitwise(t *testing.T) {
	dir := t.TempDir()
	// Cache off: repeats must come from real scoring, not replay.
	s, err := New(Config{Dir: dir, Procs: 1, PredictCacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	client := ts.Client()

	jobID := trainDone(t, client, ts.URL, 200, 13)
	if code, _, _ := rawPost(t, client, ts.URL+"/v1/models",
		PublishRequest{ID: "prod", JobID: jobID}); code != http.StatusCreated {
		t.Fatal("publish failed")
	}

	// Request shapes off and on the 256-row kernel block grid.
	sizes := []int{1, 5, 64, 256, 257, 300}
	reqs := make([]PredictRequest, len(sizes))
	baseline := make([][]byte, len(sizes))
	for i, n := range sizes {
		reqs[i] = predictBody(t, n, uint64(100+i))
		code, _, body := rawPost(t, client, ts.URL+"/v1/models/prod/predict", reqs[i])
		if code != http.StatusOK {
			t.Fatalf("baseline %d: status %d (%s)", i, code, body)
		}
		baseline[i] = body
	}

	hammer := func(url string) {
		t.Helper()
		const rounds = 4
		var wg sync.WaitGroup
		errc := make(chan error, len(sizes)*rounds)
		for r := 0; r < rounds; r++ {
			for i := range reqs {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					code, _, body := rawPost(t, client, url+"/v1/models/prod/predict", reqs[i])
					if code != http.StatusOK {
						errc <- fmt.Errorf("req %d: status %d (%s)", i, code, body)
						return
					}
					if !bytes.Equal(body, baseline[i]) {
						errc <- fmt.Errorf("req %d: coalesced response differs from solo baseline", i)
					}
				}()
			}
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
	}
	hammer(ts.URL)
	batched := s.reg.Snapshot()
	if batched.Counters["serve.predict.requests"] < float64(len(sizes)) {
		t.Errorf("predict counter did not advance: %+v", batched.Counters)
	}
	ts.Close()
	s.Close()

	// Two and three warm scorers over the same registry state: bitwise
	// identical to the one-scorer baselines whichever scorer takes a batch.
	for _, procs := range []int{2, 3} {
		s2, err := New(Config{Dir: dir, Procs: 1, PredictCacheEntries: -1, PredictProcs: procs})
		if err != nil {
			t.Fatal(err)
		}
		ts2 := httptest.NewServer(s2)
		client = ts2.Client()
		for i := range reqs {
			code, _, body := rawPost(t, client, ts2.URL+"/v1/models/prod/predict", reqs[i])
			if code != http.StatusOK {
				t.Fatalf("procs=%d req %d: status %d", procs, i, code)
			}
			if !bytes.Equal(body, baseline[i]) {
				t.Fatalf("procs=%d req %d: response differs from the one-scorer baseline", procs, i)
			}
		}
		hammer(ts2.URL)
		ts2.Close()
		s2.Close()
	}
}

// TestServeResponseCache checks the LRU replay path: miss then
// byte-identical hit, stats accounting, and invalidation on activation so
// a stale version can never answer unpinned traffic.
func TestServeResponseCache(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	job1 := trainDone(t, client, ts.URL, 160, 41)
	job2 := trainDone(t, client, ts.URL, 160, 67)
	if code, _, _ := rawPost(t, client, ts.URL+"/v1/models",
		PublishRequest{ID: "prod", JobID: job1}); code != http.StatusCreated {
		t.Fatal("publish v1 failed")
	}

	req := predictBody(t, 90, 55)
	code, hdr, first := rawPost(t, client, ts.URL+"/v1/models/prod/predict", req)
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first predict: status %d X-Cache %q", code, hdr.Get("X-Cache"))
	}
	code, hdr, second := rawPost(t, client, ts.URL+"/v1/models/prod/predict", req)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("second predict: status %d X-Cache %q", code, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Error("cache replay is not byte-identical")
	}

	// Publish+activate v2: the cache entry for v1 must not answer the
	// same body anymore.
	if code, _, _ := rawPost(t, client, ts.URL+"/v1/models",
		PublishRequest{ID: "prod", JobID: job2}); code != http.StatusCreated {
		t.Fatal("publish v2 failed")
	}
	code, hdr, v2body := rawPost(t, client, ts.URL+"/v1/models/prod/predict", req)
	if code != http.StatusOK {
		t.Fatalf("post-activation predict: %d", code)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Errorf("post-activation predict served X-Cache %q, want miss", hdr.Get("X-Cache"))
	}
	if bytes.Equal(v2body, first) {
		t.Error("activation served the stale v1 response")
	}
	pin2 := req
	pin2.Version = 2
	_, _, pinned := rawPost(t, client, ts.URL+"/v1/models/prod/predict", pin2)
	if !bytes.Equal(v2body, pinned) {
		t.Error("unpinned post-activation response differs from pinned v2")
	}

	var info ModelInfo
	if code := getJSON(t, client, ts.URL+"/v1/models/prod", &info); code != http.StatusOK {
		t.Fatalf("model info: %d", code)
	}
	if info.Cache.Hits < 1 || info.Cache.Misses < 2 || info.Cache.Entries < 1 {
		t.Errorf("cache stats %+v", info.Cache)
	}
	if info.WarmCaches < 1 {
		t.Errorf("warm cache count %d, want >= 1", info.WarmCaches)
	}
}

// TestServePredictKillRestart is the predict-tier restart acceptance test:
// kill the daemon under live predict traffic, restart over the same state
// directory, and require the registry (versions, active pointer) and every
// response byte to survive.
func TestServePredictKillRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Dir: dir, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	client := ts1.Client()

	job1 := trainDone(t, client, ts1.URL, 180, 3)
	job2 := trainDone(t, client, ts1.URL, 180, 9)
	off := false
	if code, _, _ := rawPost(t, client, ts1.URL+"/v1/models",
		PublishRequest{ID: "prod", JobID: job1}); code != http.StatusCreated {
		t.Fatal("publish v1 failed")
	}
	if code, _, _ := rawPost(t, client, ts1.URL+"/v1/models",
		PublishRequest{ID: "prod", JobID: job2, Activate: &off}); code != http.StatusCreated {
		t.Fatal("publish v2 failed")
	}

	req := predictBody(t, 70, 21)
	code, _, preKill := rawPost(t, client, ts1.URL+"/v1/models/prod/predict", req)
	if code != http.StatusOK {
		t.Fatalf("pre-kill predict: %d", code)
	}
	pin2 := req
	pin2.Version = 2
	_, _, preKillV2 := rawPost(t, client, ts1.URL+"/v1/models/prod/predict", pin2)

	// Kill mid-traffic: concurrent clients keep firing while Close runs.
	// In-flight requests either finish with the correct bytes or bounce
	// with a shutdown/transport error — never wrong data.
	var wg sync.WaitGroup
	stopTraffic := make(chan struct{})
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(req)
			for {
				select {
				case <-stopTraffic:
					return
				default:
				}
				resp, err := client.Post(ts1.URL+"/v1/models/prod/predict",
					"application/json", bytes.NewReader(body))
				if err != nil {
					continue // connection torn down by the kill
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK && !bytes.Equal(got, preKill) {
					errc <- fmt.Errorf("mid-kill 200 with wrong bytes")
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	close(stopTraffic)
	wg.Wait()
	ts1.Close()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Restart: registry intact, same bits, cache warms back up.
	s2, err := New(Config{Dir: dir, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	client = ts2.Client()

	var info ModelInfo
	if code := getJSON(t, client, ts2.URL+"/v1/models/prod", &info); code != http.StatusOK {
		t.Fatalf("model info after restart: %d", code)
	}
	if len(info.Versions) != 2 || info.Active != 1 {
		t.Fatalf("registry lost state across restart: %+v", info)
	}
	code, hdr, postKill := rawPost(t, client, ts2.URL+"/v1/models/prod/predict", req)
	if code != http.StatusOK {
		t.Fatalf("post-restart predict: %d", code)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Errorf("fresh server served X-Cache %q, want miss", hdr.Get("X-Cache"))
	}
	if !bytes.Equal(postKill, preKill) {
		t.Error("restart changed the active version's response bytes")
	}
	_, hdr, again := rawPost(t, client, ts2.URL+"/v1/models/prod/predict", req)
	if hdr.Get("X-Cache") != "hit" || !bytes.Equal(again, preKill) {
		t.Error("post-restart cache replay broken")
	}
	_, _, postKillV2 := rawPost(t, client, ts2.URL+"/v1/models/prod/predict", pin2)
	if !bytes.Equal(postKillV2, preKillV2) {
		t.Error("restart changed the pinned v2 response bytes")
	}

	// Activation after restart still flips and invalidates correctly.
	if code, _, _ := rawPost(t, client, ts2.URL+"/v1/models/prod/activate",
		ActivateRequest{Version: 2}); code != http.StatusOK {
		t.Fatal("activate v2 after restart failed")
	}
	_, _, flipped := rawPost(t, client, ts2.URL+"/v1/models/prod/predict", req)
	if !bytes.Equal(flipped, preKillV2) {
		t.Error("post-restart activation did not serve v2 bytes")
	}
}
