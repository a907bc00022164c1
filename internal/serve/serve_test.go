package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pautoclass"
)

// wireRows converts a dataset into the HTTP wire format (null = missing).
func wireRows(ds *dataset.Dataset) ([]AttrSpec, [][]*float64) {
	attrs := make([]AttrSpec, ds.NumAttrs())
	for k, a := range ds.Attrs() {
		sp := AttrSpec{Name: a.Name, Levels: a.Levels}
		switch a.Type {
		case dataset.Real:
			sp.Type = "real"
		case dataset.Discrete:
			sp.Type = "discrete"
		}
		attrs[k] = sp
	}
	rows := make([][]*float64, ds.N())
	for i := range rows {
		src := ds.RowTo(nil, i)
		row := make([]*float64, len(src))
		for k, v := range src {
			if !dataset.IsMissing(v) {
				v := v
				row[k] = &v
			}
		}
		rows[i] = row
	}
	return attrs, rows
}

func paperJob(t *testing.T, n int, seed uint64, search *SearchSpec) (JobRequest, *dataset.Dataset) {
	t.Helper()
	ds, err := datagen.Paper(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	attrs, rows := wireRows(ds)
	return JobRequest{Name: ds.Name, Attrs: attrs, Rows: rows, Search: search}, ds
}

func postJSON(t *testing.T, client *http.Client, url string, body, out any) int {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// publishJob registers done job jobID as model modelID (POST /v1/models):
// the daemon predicts only through the registry.
func publishJob(t *testing.T, client *http.Client, base, jobID, modelID string) {
	t.Helper()
	if code := postJSON(t, client, base+"/v1/models", PublishRequest{ID: modelID, JobID: jobID}, nil); code != http.StatusCreated {
		t.Fatalf("publish job %s as model %q: status %d", jobID, modelID, code)
	}
}

func waitState(t *testing.T, client *http.Client, base, id, want string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st JobStatus
		if code := getJSON(t, client, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("poll job %s: status %d", id, code)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// referenceSearch reproduces what the daemon's runner computes, through the
// direct pautoclass API on the same rank count.
func referenceSearch(t *testing.T, ds *dataset.Dataset, sp *SearchSpec, procs int) *autoclass.SearchResult {
	t.Helper()
	cfg, err := searchConfig(sp)
	if err != nil {
		t.Fatal(err)
	}
	var res *autoclass.SearchResult
	err = mpi.Run(procs, func(c *mpi.Comm) error {
		opts := pautoclass.DefaultOptions()
		opts.EM = cfg.EM
		r, err := pautoclass.Search(c, ds, model.DefaultSpec(ds), cfg, opts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func modelBytes(t *testing.T, cls *autoclass.Classification) []byte {
	t.Helper()
	var buf bytes.Buffer
	ck := autoclass.Checkpoint{Classification: cls}
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var quickSpec = &SearchSpec{StartJList: []int{2, 3}, Tries: 1, MaxCycles: 30, Parallelism: 1}

// TestServeTrainPredictE2E drives the full daemon loop over real HTTP:
// submit a job, poll it to completion, verify the fitted model matches the
// direct pautoclass pipeline bitwise, batch-score held-out rows against it
// and verify the predictions match the in-process batch scorer exactly,
// then scrape /metrics and /debug/trace.
func TestServeTrainPredictE2E(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Procs: 2, Every: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	req, trainDS := paperJob(t, 300, 17, quickSpec)
	var st JobStatus
	if code := postJSON(t, client, ts.URL+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit returned %+v", st)
	}
	done := waitState(t, client, ts.URL, st.ID, StateDone, 2*time.Minute)
	if done.J < 1 || done.Cycles < 1 {
		t.Fatalf("done status incomplete: %+v", done)
	}

	// The daemon trained through a checkpointed Search on 2 ranks; the direct
	// pipeline must land on the bitwise-identical model.
	ref := referenceSearch(t, trainDS, quickSpec, 2)
	saved, err := os.ReadFile(s.jobPath(st.ID, "model.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, modelBytes(t, ref.Best)) {
		t.Error("daemon-trained model differs from the direct pipeline")
	}

	// Batch prediction over HTTP equals the in-process batch scorer.
	heldout, err := datagen.Paper(200, 99)
	if err != nil {
		t.Fatal(err)
	}
	_, rows := wireRows(heldout)
	publishJob(t, client, ts.URL, st.ID, "e2e")
	var pr PredictResponse
	code := postJSON(t, client, ts.URL+"/v1/models/e2e/predict",
		PredictRequest{Rows: rows, Parallelism: 3}, &pr)
	if code != http.StatusOK {
		t.Fatalf("predict: status %d", code)
	}
	want, err := autoclass.Predict(ref.Best, heldout, autoclass.PredictConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.N != want.N() || pr.J != want.J {
		t.Fatalf("predict shape: got N=%d J=%d, want N=%d J=%d", pr.N, pr.J, want.N(), want.J)
	}
	if pr.LogLik != want.LogLik {
		t.Errorf("predict loglik %v, want %v", pr.LogLik, want.LogLik)
	}
	for i := 0; i < pr.N; i++ {
		if pr.MAP[i] != want.MAP[i] {
			t.Fatalf("row %d: MAP %d, want %d", i, pr.MAP[i], want.MAP[i])
		}
		for j, m := range pr.Memberships[i] {
			// encoding/json round-trips float64 exactly, so the HTTP path
			// must be bit-for-bit the in-process scorer.
			if m != want.Membership(i)[j] {
				t.Fatalf("row %d class %d: membership %v, want %v", i, j, m, want.Membership(i)[j])
			}
		}
	}

	// Metrics expose both the server counters and the training run.
	var metrics struct {
		Server struct {
			Counters map[string]float64 `json:"counters"`
		} `json:"server"`
		Run *struct {
			Counters map[string]float64 `json:"counters"`
		} `json:"run"`
	}
	if code := getJSON(t, client, ts.URL+"/metrics.json", &metrics); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if metrics.Server.Counters["serve.jobs.done"] < 1 {
		t.Errorf("metrics missing completed job: %+v", metrics.Server.Counters)
	}
	if metrics.Server.Counters["serve.predict.rows"] != float64(heldout.N()) {
		t.Errorf("predict rows counter = %v, want %d", metrics.Server.Counters["serve.predict.rows"], heldout.N())
	}
	if metrics.Run == nil || metrics.Run.Counters["engine.cycles"] < 1 {
		t.Errorf("run metrics missing engine cycles: %+v", metrics.Run)
	}

	// The Chrome trace of the finished run is exportable.
	resp, err := client.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	trace.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", resp.StatusCode)
	}
	if !bytes.Contains(trace.Bytes(), []byte("traceEvents")) {
		t.Error("trace response is not a Chrome trace")
	}
}

// TestServeConcurrentPredict hammers one fitted model from 8 concurrent
// clients (the acceptance criterion's -race scenario): every response must
// be byte-identical — batch scoring builds per-call kernels, so shared
// model state is read-only.
func TestServeConcurrentPredict(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	req, _ := paperJob(t, 250, 23, quickSpec)
	var st JobStatus
	if code := postJSON(t, client, ts.URL+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, client, ts.URL, st.ID, StateDone, 2*time.Minute)
	publishJob(t, client, ts.URL, st.ID, "concurrent")

	heldout, err := datagen.Paper(300, 41)
	if err != nil {
		t.Fatal(err)
	}
	_, rows := wireRows(heldout)
	body, err := json.Marshal(PredictRequest{Rows: rows, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 5
	results := make([][]byte, clients)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := client.Post(ts.URL+"/v1/models/concurrent/predict",
					"application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("client %d: status %d: %s", g, resp.StatusCode, buf.String())
					return
				}
				if results[g] == nil {
					results[g] = buf.Bytes()
				} else if !bytes.Equal(results[g], buf.Bytes()) {
					errc <- fmt.Errorf("client %d: responses differ between calls", g)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for g := 1; g < clients; g++ {
		if !bytes.Equal(results[0], results[g]) {
			t.Fatalf("client %d saw a different prediction than client 0", g)
		}
	}
}

// TestServeStateWriteFault: a state write that fails on rank 0 of a 2-rank
// job fails the job instead of leaving it running, the server runs the next
// job once the disk recovers, and Close returns.
func TestServeStateWriteFault(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()
	disarm := atomicfile.Inject("search.ckpt", 0, atomicfile.NoSpace)
	defer disarm()

	req, _ := paperJob(t, 240, 5, quickSpec)
	var st JobStatus
	if code := postJSON(t, client, ts.URL+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	failed := waitState(t, client, ts.URL, st.ID, StateFailed, 15*time.Second)
	if !strings.Contains(failed.Error, "no space left on device") {
		t.Errorf("failed job reports %q, want the state write's no space left on device", failed.Error)
	}

	disarm()
	if code := postJSON(t, client, ts.URL+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("second submit: status %d", code)
	}
	waitState(t, client, ts.URL, st.ID, StateDone, time.Minute)

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close still blocked after 10s")
	}
}

// TestServeKillAndRestart is the daemon-restart acceptance test: Close
// interrupts a mid-flight search cooperatively (resumable snapshot on
// disk, job back to queued), and a new server over the same state
// directory resumes and finishes it — landing on the bitwise-identical
// model to an uninterrupted run.
func TestServeKillAndRestart(t *testing.T) {
	killAndRestart(t, 2)
}

// TestServeRestartUnderOtherProcs: a job that took the server's default
// rank count resumes on that count after a restart with another default —
// its SPMD state file refuses any other — and lands on the model of an
// uninterrupted run on the first count.
func TestServeRestartUnderOtherProcs(t *testing.T) {
	killAndRestart(t, 3)
}

// killAndRestart submits a job without a rank count to a server with the
// default 2, closes the server mid-search, finishes the job on a new server
// over the same directory with the default restartProcs, and checks the
// model against an uninterrupted 2-rank search.
func killAndRestart(t *testing.T, restartProcs int) {
	dir := t.TempDir()
	// Enough work that the job is still mid-search when we pull the plug.
	longSpec := &SearchSpec{StartJList: []int{2, 3, 4, 5}, Tries: 2, MaxCycles: 200, Parallelism: 1}
	req, trainDS := paperJob(t, 240, 5, longSpec)

	s1, err := New(Config{Dir: dir, Procs: 2, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	var st JobStatus
	if code := postJSON(t, ts1.Client(), ts1.URL+"/v1/jobs", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// Wait until the search has made checkpointable progress, then kill
	// the daemon mid-run.
	ckpt := s1.jobPath(st.ID, "search.ckpt")
	deadline := time.Now().Add(time.Minute)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no search checkpoint appeared within a minute")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// The interrupted job must be resumable: back to queued on disk, with
	// the rank count it ran on.
	var onDisk JobStatus
	if err := readJSON(s1.jobPath(st.ID, "status.json"), &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.State == StateDone {
		t.Skip("job finished before the kill; nothing to resume")
	}
	if onDisk.State != StateQueued {
		t.Fatalf("interrupted job persisted as %q, want %q", onDisk.State, StateQueued)
	}
	if onDisk.Procs != 2 {
		t.Fatalf("interrupted job persisted procs %d, want 2", onDisk.Procs)
	}

	// A fresh server over the same directory re-enqueues and finishes it.
	s2, err := New(Config{Dir: dir, Procs: restartProcs, Every: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	if done := waitState(t, ts2.Client(), ts2.URL, st.ID, StateDone, 3*time.Minute); done.Procs != 2 {
		t.Errorf("resumed job reports procs %d, want 2", done.Procs)
	}

	ref := referenceSearch(t, trainDS, longSpec, 2)
	saved, err := os.ReadFile(s2.jobPath(st.ID, "model.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, modelBytes(t, ref.Best)) {
		t.Error("resumed training landed on a different model than an uninterrupted run")
	}
}

// TestServeValidation covers the synchronous failure paths.
func TestServeValidation(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	one := 1.0
	good, _ := paperJob(t, 50, 3, quickSpec)

	bad := good
	bad.Attrs = []AttrSpec{{Name: "x", Type: "complex"}}
	if code := postJSON(t, client, ts.URL+"/v1/jobs", bad, nil); code != http.StatusBadRequest {
		t.Errorf("unknown attr type accepted: %d", code)
	}
	bad = good
	bad.Rows = [][]*float64{{&one}}
	if code := postJSON(t, client, ts.URL+"/v1/jobs", bad, nil); code != http.StatusBadRequest {
		t.Errorf("short row accepted: %d", code)
	}
	bad = good
	bad.Rows = nil
	if code := postJSON(t, client, ts.URL+"/v1/jobs", bad, nil); code != http.StatusBadRequest {
		t.Errorf("empty rows accepted: %d", code)
	}
	bad = good
	bad.Procs = maxProcs + 1
	if code := postJSON(t, client, ts.URL+"/v1/jobs", bad, nil); code != http.StatusBadRequest {
		t.Errorf("oversized procs accepted: %d", code)
	}

	if code := getJSON(t, client, ts.URL+"/v1/jobs/999", nil); code != http.StatusNotFound {
		t.Errorf("missing job returned %d", code)
	}
	if code := postJSON(t, client, ts.URL+"/v1/models/999/predict", PredictRequest{Rows: good.Rows}, nil); code != http.StatusNotFound {
		t.Errorf("missing model returned %d", code)
	}

	// A queued/running job is not yet a model: publishing it is refused.
	var st JobStatus
	if code := postJSON(t, client, ts.URL+"/v1/jobs", good, &st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	code := postJSON(t, client, ts.URL+"/v1/models", PublishRequest{ID: "early", JobID: st.ID}, nil)
	if code != http.StatusConflict {
		// The tiny job may already be done; only a 201 with State done is
		// acceptable then.
		stNow, _ := s.status(st.ID)
		if stNow.State != StateDone {
			t.Errorf("publishing a %s job returned %d", stNow.State, code)
		}
	}
	waitState(t, client, ts.URL, st.ID, StateDone, 2*time.Minute)
	publishJob(t, client, ts.URL, st.ID, "valid")

	// Predict-side validation against a real model.
	if code := postJSON(t, client, ts.URL+"/v1/models/valid/predict", PredictRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty predict rows accepted: %d", code)
	}
	bad = good
	if code := postJSON(t, client, ts.URL+"/v1/models/valid/predict",
		PredictRequest{Rows: [][]*float64{{&one}}}, nil); code != http.StatusBadRequest {
		t.Errorf("short predict row accepted: %d", code)
	}

	// Health endpoint.
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, client, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz: %d %+v", code, health)
	}
}

// TestValidateJobBoundsSearch: a job whose search would exhaust memory once
// it ran is refused at submission, with a 400 (handleSubmit answers every
// validateJob error so): a start J above maxStartJ, or a schedule of more
// than maxSearchVariants tries. Shapes at the bounds still pass. The test
// calls validateJob alone, so no refused job ever runs.
func TestValidateJobBoundsSearch(t *testing.T) {
	base, _ := paperJob(t, 3, 1, nil)
	for _, c := range []struct {
		name string
		spec SearchSpec
		ok   bool
	}{
		{"start J at the bound", SearchSpec{StartJList: []int{2, maxStartJ}}, true},
		{"start J past the bound", SearchSpec{StartJList: []int{1 << 30}}, false},
		{"schedule at the bound", SearchSpec{StartJList: []int{2, 4}, Tries: maxSearchVariants / 2}, true},
		{"schedule past the bound", SearchSpec{StartJList: []int{2, 4}, Tries: maxSearchVariants/2 + 1}, false},
		{"default start J list, 10^8 tries", SearchSpec{Tries: 100000000}, false},
	} {
		req := base
		req.Search = &c.spec
		if err := validateJob(&req); (err == nil) != c.ok {
			t.Errorf("%s: validateJob returned %v, want accepted %v", c.name, err, c.ok)
		}
	}
}
