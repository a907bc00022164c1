// Command benchserve measures the pautoclassd predict tier end to end and
// emits BENCH_serve.json, the committed baseline of the production-serving
// acceptance: sustained concurrent predict traffic against a published
// model, with client-side p50/p99 latency, throughput at saturation,
// response bytes per request, and the response-cache hit rate.
//
// The run is self-checking. Before the load phase every request body is
// scored alone on an idle single-process server to fix its baseline bytes;
// then the daemon is restarted over the same state directory with
// scale-out predict workers, and every response — sharded, coalesced under
// concurrency, or replayed from the cache — must be byte-identical to its
// baseline, or the tool exits nonzero.
//
//	benchserve -train-rows 400 -clients 8 -per-client 50 -o BENCH_serve.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// Report is the BENCH_serve.json schema.
type Report struct {
	Goos   string `json:"goos"`
	Goarch string `json:"goarch"`

	TrainRows    int `json:"train_rows"`
	PredictRows  int `json:"predict_rows"`
	Bodies       int `json:"bodies"`
	Clients      int `json:"clients"`
	PerClient    int `json:"per_client"`
	PredictProcs int `json:"predict_procs"`

	// Load-phase results. Latencies are client-observed, exact order
	// statistics over every successful request.
	Requests    int     `json:"requests"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MeanMs      float64 `json:"mean_ms"`
	QPS         float64 `json:"qps"`
	BytesPerReq float64 `json:"bytes_per_req"`

	// CacheHitRate is hits/(hits+misses) from the model's registry stats.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Rejected counts 429/503 backpressure answers during the load phase.
	Rejected int `json:"rejected"`

	// BitwiseMatch records that every load-phase and scale-out response
	// was byte-identical to its idle single-process baseline, across the
	// daemon restart.
	BitwiseMatch bool `json:"bitwise_match"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchserve:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchserve", flag.ContinueOnError)
	trainRows := fs.Int("train-rows", 400, "training rows")
	predictRows := fs.Int("predict-rows", 128, "rows per predict body")
	bodies := fs.Int("bodies", 6, "distinct predict bodies cycled by the clients")
	clients := fs.Int("clients", 8, "concurrent load clients")
	perClient := fs.Int("per-client", 50, "requests per client in the load phase")
	predictProcs := fs.Int("predict-procs", 2, "warm scorers per model version in the scale-out phase")
	seed := fs.Uint64("seed", 29, "workload seed")
	out := fs.String("o", "BENCH_serve.json", "output path (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bodies < 1 || *clients < 1 || *perClient < 1 {
		return fmt.Errorf("bodies, clients and per-client must be positive")
	}

	dir, err := os.MkdirTemp("", "benchserve")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	rep := Report{
		Goos: runtime.GOOS, Goarch: runtime.GOARCH,
		TrainRows: *trainRows, PredictRows: *predictRows, Bodies: *bodies,
		Clients: *clients, PerClient: *perClient, PredictProcs: *predictProcs,
		BitwiseMatch: true,
	}

	// Phase 1 — train, publish, and fix the single-process baselines.
	s1, err := serve.New(serve.Config{Dir: dir, Procs: 2, Logger: quiet})
	if err != nil {
		return err
	}
	ts1 := httptest.NewServer(s1)
	client := ts1.Client()

	jobID, err := train(client, ts1.URL, *trainRows, *seed)
	if err != nil {
		return err
	}
	var pub serve.PublishResponse
	if code, body, err := post(client, ts1.URL+"/v1/models",
		serve.PublishRequest{ID: "bench", JobID: jobID}); err != nil {
		return err
	} else if code != http.StatusCreated {
		return fmt.Errorf("publish: status %d: %s", code, body)
	} else if err := json.Unmarshal(body, &pub); err != nil {
		return err
	}

	reqBodies := make([][]byte, *bodies)
	baseline := make([][]byte, *bodies)
	for i := range reqBodies {
		ho, err := datagen.Paper(*predictRows, *seed+uint64(1000+i))
		if err != nil {
			return err
		}
		reqBodies[i], err = json.Marshal(serve.PredictRequest{Rows: wireRows(ho)})
		if err != nil {
			return err
		}
		code, body, err := postRaw(client, ts1.URL+"/v1/models/bench/predict", reqBodies[i])
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("baseline %d: status %d: %s", i, code, body)
		}
		baseline[i] = body
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		return err
	}

	// Phase 2 — restart over the same state with scale-out predict
	// workers. The registry must come back, and every response must keep
	// its baseline bytes.
	s2, err := serve.New(serve.Config{Dir: dir, Procs: 2, Logger: quiet,
		PredictProcs: *predictProcs})
	if err != nil {
		return err
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	client = ts2.Client()

	var info serve.ModelInfo
	if code, body, err := get(client, ts2.URL+"/v1/models/bench"); err != nil {
		return err
	} else if code != http.StatusOK {
		return fmt.Errorf("model info after restart: status %d", code)
	} else if err := json.Unmarshal(body, &info); err != nil {
		return err
	}
	if info.Active != pub.Version.Version || len(info.Versions) != 1 {
		return fmt.Errorf("registry did not survive the restart: %+v", info)
	}
	for i := range reqBodies {
		code, body, err := postRaw(client, ts2.URL+"/v1/models/bench/predict", reqBodies[i])
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("scale-out check %d: status %d", i, code)
		}
		if !bytes.Equal(body, baseline[i]) {
			rep.BitwiseMatch = false
			return fmt.Errorf("scale-out response %d differs from the single-process baseline", i)
		}
	}

	// Phase 3 — sustained concurrent load. Clients cycle the bodies, so
	// past the first round the cache can answer; every 200 is compared
	// against its baseline.
	type obsv struct {
		latency time.Duration
		bytes   int
	}
	all := make([][]obsv, *clients)
	var wg sync.WaitGroup
	errc := make(chan error, *clients)
	rejected := make([]int, *clients)
	start := time.Now()
	for g := 0; g < *clients; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < *perClient; i++ {
				bi := (g + i) % len(reqBodies)
				t0 := time.Now()
				code, body, err := postRaw(client, ts2.URL+"/v1/models/bench/predict", reqBodies[bi])
				lat := time.Since(t0)
				if err != nil {
					errc <- err
					return
				}
				switch code {
				case http.StatusOK:
					if !bytes.Equal(body, baseline[bi]) {
						errc <- fmt.Errorf("client %d: response %d differs from baseline under load", g, bi)
						return
					}
					all[g] = append(all[g], obsv{lat, len(body)})
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					rejected[g]++
				default:
					errc <- fmt.Errorf("client %d: status %d: %s", g, code, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		rep.BitwiseMatch = false
		return err
	}

	var lats []float64
	var totalBytes int64
	for g := range all {
		rep.Rejected += rejected[g]
		for _, o := range all[g] {
			lats = append(lats, float64(o.latency.Microseconds())/1e3)
			totalBytes += int64(o.bytes)
		}
	}
	if len(lats) == 0 {
		return fmt.Errorf("no successful requests in the load phase")
	}
	sort.Float64s(lats)
	rep.Requests = len(lats)
	rep.P50Ms = quantile(lats, 0.50)
	rep.P99Ms = quantile(lats, 0.99)
	for _, l := range lats {
		rep.MeanMs += l
	}
	rep.MeanMs /= float64(len(lats))
	rep.QPS = float64(len(lats)) / elapsed.Seconds()
	rep.BytesPerReq = float64(totalBytes) / float64(len(lats))

	if code, body, err := get(client, ts2.URL+"/v1/models/bench"); err != nil {
		return err
	} else if code != http.StatusOK {
		return fmt.Errorf("final model info: status %d", code)
	} else if err := json.Unmarshal(body, &info); err != nil {
		return err
	}
	if total := info.Cache.Hits + info.Cache.Misses; total > 0 {
		rep.CacheHitRate = float64(info.Cache.Hits) / float64(total)
	}

	raw, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if *out == "-" {
		_, err = w.Write(raw)
		return err
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "benchserve: %d requests, p50 %.2fms p99 %.2fms, %.0f qps, cache hit rate %.2f -> %s\n",
		rep.Requests, rep.P50Ms, rep.P99Ms, rep.QPS, rep.CacheHitRate, *out)
	return nil
}

// quantile reads the exact q-th order statistic (nearest-rank) from a
// sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// train submits one paper-workload training job and polls it done.
func train(client *http.Client, base string, rows int, seed uint64) (string, error) {
	ds, err := datagen.Paper(rows, seed)
	if err != nil {
		return "", err
	}
	attrs := make([]serve.AttrSpec, ds.NumAttrs())
	for k, a := range ds.Attrs() {
		sp := serve.AttrSpec{Name: a.Name, Levels: a.Levels}
		if a.Type == dataset.Real {
			sp.Type = "real"
		} else {
			sp.Type = "discrete"
		}
		attrs[k] = sp
	}
	req := serve.JobRequest{
		Name: "bench", Attrs: attrs, Rows: wireRows(ds),
		Search: &serve.SearchSpec{StartJList: []int{3}, Tries: 1, MaxCycles: 30, Parallelism: 1},
	}
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	code, out, err := postRaw(client, base+"/v1/jobs", body)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d: %s", code, out)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		return "", err
	}
	deadline := time.Now().Add(5 * time.Minute)
	for {
		code, out, err := get(client, base+"/v1/jobs/"+st.ID)
		if err != nil {
			return "", err
		}
		if code != http.StatusOK {
			return "", fmt.Errorf("poll: status %d", code)
		}
		if err := json.Unmarshal(out, &st); err != nil {
			return "", err
		}
		switch st.State {
		case serve.StateDone:
			return st.ID, nil
		case serve.StateFailed:
			return "", fmt.Errorf("training failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("training stuck in %q", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// wireRows converts a dataset to the wire format (null = missing).
func wireRows(ds *dataset.Dataset) [][]*float64 {
	rows := make([][]*float64, ds.N())
	for i := range rows {
		src := ds.Row(i)
		row := make([]*float64, len(src))
		for k, v := range src {
			if !dataset.IsMissing(v) {
				v := v
				row[k] = &v
			}
		}
		rows[i] = row
	}
	return rows
}

func post(client *http.Client, url string, v any) (int, []byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	return postRaw(client, url, b)
}

func postRaw(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func get(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}
