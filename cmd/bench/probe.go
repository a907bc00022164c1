package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pautoclass"
)

// Probes time one layer through its public functions on the workload's own
// data or model. A traced run reports every per-layer metric on every
// workload; where the workload's path does not run a layer, its probe does,
// the workload's own measurement always takes precedence (metrics.set), and
// outcome.probe lists the values a probe filled in the record.

// probeDataset times the data layer on the workload's training rows: CSV
// parse into a materialized dataset, the columnar transpose of a fresh
// view, and a chunk-file write and bounded-cache open (a tenth of the
// file). It returns the open chunk dataset and the materialized one.
func probeDataset(tr *tracer, m metrics, csv []byte, want *dataset.Dataset, dir string, chunkRows int) (cds, mat *dataset.Dataset, err error) {
	sp := tr.begin("dataset.ReadCSVWith", 1, 0, "")
	t0 := time.Now()
	mat, err = dataset.ReadCSVWith(bytes.NewReader(csv), want.Name, dataset.CSVOptions{Attrs: want.Attrs()})
	sec := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	m.set("dataset.csv_parse_s", sec)
	m.set("dataset.csv_mb_per_s", float64(len(csv))/1e6/sec)

	view, err := mat.View(0, mat.N())
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("dataset.View.Columns", 1, 0, "")
	t0 = time.Now()
	view.Columns()
	m.set("dataset.columns_s", time.Since(t0).Seconds())
	tr.end(sp)

	path := filepath.Join(dir, "probe.chunks")
	sp = tr.begin("dataset.WriteChunked", 1, 0, "")
	t0 = time.Now()
	err = dataset.WriteChunked(path, mat, chunkRows)
	m.set("dataset.chunk_write_s", time.Since(t0).Seconds())
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("dataset.OpenChunked", 1, 0, "")
	t0 = time.Now()
	cds, err = dataset.OpenChunked(path, dataset.ChunkOptions{Mode: dataset.ChunkCached, MemoryBudget: fi.Size() / 10})
	m.set("dataset.chunk_open_s", time.Since(t0).Seconds())
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	return cds, mat, nil
}

// probeCache walks the bounded-cache chunk dataset twice (two Summarize
// passes) and reports its cache counters over the walk.
func probeCache(tr *tracer, m metrics, cds *dataset.Dataset) {
	cs := cds.ChunkStore().(interface{ Stats() dataset.CacheStats })
	before := cs.Stats()
	sp := tr.begin("dataset.Summarize", 1, 0, "")
	cds.Summarize()
	cds.Summarize()
	tr.end(sp)
	reportCache(m, before, cs.Stats())
}

// probeModel times the model-artifact and scoring layers on the fitted
// model: checkpoint save and load, whole-set scoring throughput, one
// 256-row batch on a warm Predictor, and the same batch sharded over two
// predict ranks (pautoclass.Predict, the daemon's scale-out scorer).
func probeModel(tr *tracer, m metrics, cls *autoclass.Classification, heldout *dataset.Dataset, dir string) error {
	path := filepath.Join(dir, "probe.ckpt")
	ck := autoclass.Checkpoint{Classification: cls}
	sp := tr.begin("autoclass.Checkpoint.SaveFile", 1, 0, "")
	t0 := time.Now()
	err := ck.SaveFile(path)
	m.set("autoclass.ckpt_save_s", time.Since(t0).Seconds())
	tr.end(sp)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("autoclass.ckpt_bytes", float64(fi.Size()))
	var back autoclass.Checkpoint
	sp = tr.begin("autoclass.Checkpoint.LoadFile", 1, 0, "")
	t0 = time.Now()
	err = back.LoadFile(path, dataset.MustNew(heldout.Name, heldout.Attrs()))
	m.set("autoclass.ckpt_load_s", time.Since(t0).Seconds())
	tr.end(sp)
	if err != nil {
		return err
	}

	cfg := autoclass.PredictConfig{RowLogLik: true}
	pred, err := autoclass.NewPredictor(cls, cfg)
	if err != nil {
		return err
	}
	var p autoclass.Prediction
	if err := pred.PredictInto(heldout.All(), &p); err != nil {
		return err
	}
	var whole sample
	for i := 0; i < 3; i++ {
		sp := tr.begin("autoclass.Predictor.PredictInto", 1, 0, "")
		t0 := time.Now()
		err := pred.PredictInto(heldout.All(), &p)
		whole = append(whole, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	m.set("autoclass.predict_rows_per_s", float64(heldout.N())/whole.median())

	batch := copyRows(heldout, 0, min(256, heldout.N()))
	var local sample
	for i := 0; i < 201; i++ {
		t0 := time.Now()
		if err := pred.PredictInto(batch.All(), &p); err != nil {
			return err
		}
		if i > 0 {
			local = append(local, time.Since(t0).Seconds()*1e6)
		}
	}
	var scale sample
	for i := 0; i < 101; i++ {
		t0 := time.Now()
		err := mpi.Run(2, func(c *mpi.Comm) error {
			_, err := pautoclass.Predict(c, cls, batch, cfg)
			return err
		})
		if err != nil {
			return err
		}
		if i > 0 {
			scale = append(scale, time.Since(t0).Seconds()*1e6)
		}
	}
	m.set("autoclass.predict_batch256_us", local.median())
	m.set("pautoclass.predict_scaleout_batch256_us", scale.median())
	m.set("pautoclass.scaleout_tax_us", scale.median()-local.median())
	return nil
}

// probeCollectives measures the collective layer with a small two-rank
// search (start J 4, one try, 5 cycles) over at most 4096 of the rows.
func probeCollectives(tr *tracer, m metrics, ds *dataset.Dataset, seed uint64) error {
	sub := copyRows(ds, 0, min(4096, ds.N()))
	cfg := autoclass.DefaultSearchConfig()
	cfg.StartJList, cfg.Tries, cfg.Seed = []int{4}, 1, seed
	cfg.EM.MaxCycles, cfg.EM.RelDelta, cfg.EM.Parallelism = 5, 0, 1
	st, err := tracedSearch(tr, sub, cfg, 2)
	if err != nil {
		return fmt.Errorf("collective probe: %w", err)
	}
	st.report(m)
	return nil
}

// probeServe measures the serving layer for a training workload: a small
// daemon (two versions of a 4-class model on 1024 rows) under one traced
// second of cold traffic from a pool of 512 bodies.
func probeServe(rc *runCtx, tr *tracer, out *outcome) error {
	p := coldServe(true)
	p.Pool = 512
	sv, err := prepareServe(rc, p, filepath.Join(rc.dir, "serve-probe"), 0, 1, out)
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	ht := &handlerTimer{}
	d, err := sv.restart(p.Conns, ht.wrap)
	if err != nil {
		return err
	}
	defer d.close()
	vf, err := sv.newVerifier(2)
	if err != nil {
		return err
	}
	pool, err := sv.pool(rand.New(rand.NewSource(int64(rc.seed))), p.Pool)
	if err != nil {
		return err
	}
	if err := vf.expectAll(pool); err != nil {
		return err
	}
	_, err = tracedServePhase(sv, d, ht, tr, pool, 1, out, "probe")
	return err
}

// handlerTimer wraps Server.ServeHTTP, timing every bench-issued predict
// (those carrying an X-Request-Id) while a tracer is installed.
type handlerTimer struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
	mu   sync.Mutex
	ms   map[string]float64
}

func (h *handlerTimer) wrap(next http.Handler) http.Handler {
	h.next = next
	return h
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	id := r.Header.Get("X-Request-Id")
	if tr == nil || id == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	sp := tr.begin("serve.ServeHTTP", 0, 0, id)
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := ms(time.Since(t0))
	tr.end(sp)
	h.mu.Lock()
	h.ms[id] = d
	h.mu.Unlock()
}

// snapshot is the part of /metrics.json the bench reads.
type snapshot struct {
	Server struct {
		Counters   map[string]float64 `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count uint64  `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	} `json:"server"`
}

func readSnapshot(c *http.Client, base string) (*snapshot, error) {
	code, body, err := get(c, base+"/metrics.json")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics.json: status %d", code)
	}
	var s snapshot
	return &s, json.Unmarshal(body, &s)
}

// tracedServePhase drives the daemon with the workload's closed loop over
// pool for seconds, traced, and reports the serving layer: handler and
// transport time, batching and cache behaviour from the daemon's own
// /metrics.json, rejections, the sampled queue-depth high-water mark,
// activation latency, response size, and what the generator itself spent
// between replies. It returns the loop's latency sample.
func tracedServePhase(sv *served, d *daemon, ht *handlerTimer, tr *tracer, pool []request,
	seconds float64, out *outcome, name string) (sample, error) {
	p := sv.p
	m := out.m
	side := &http.Client{}
	defer side.CloseIdleConnections()
	before, err := readSnapshot(side, d.ts.URL)
	if err != nil {
		return nil, err
	}
	// Queue depth is exported as a gauge, not a high-water mark, so it is
	// sampled every 20ms through the loop.
	stop, sampled := make(chan struct{}), make(chan float64)
	go func() {
		high := 0.0
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				sampled <- high
				return
			case <-t.C:
				if s, err := readSnapshot(side, d.ts.URL); err == nil {
					high = max(high, s.Server.Gauges["serve.predict.queue_depth"])
				}
			}
		}
	}()
	var act *activator
	if p.Activate {
		act = startActivator(d, time.Second)
	}
	ht.mu.Lock()
	ht.ms = map[string]float64{}
	ht.mu.Unlock()
	ht.tr.Store(tr)
	replies := closedLoop(d, pool, new(atomic.Int32), p.Conns, time.Duration(seconds*float64(time.Second)), tr, name)
	ht.tr.Store(nil)
	actLat := sample(nil)
	if act != nil {
		act.halt()
		out.check(act.errs == 0, "%s: %d activations failed", name, act.errs)
		actLat = act.lat
	}
	close(stop)
	high := <-sampled
	after, err := readSnapshot(side, d.ts.URL)
	if err != nil {
		return nil, err
	}
	check(replies, out, name)
	if len(actLat) == 0 {
		// No activations in this traffic mix: time a few flips after the
		// loop, ending on the version that was active.
		for _, v := range []int{1, 2, 1, 2, 1, 2} {
			l, err := activate(d, v)
			if err != nil {
				return nil, err
			}
			actLat = append(actLat, l)
		}
	}

	var handler, transport, gap sample
	var n429, n503, ok, bytesOK float64
	lastDone := map[int]time.Duration{}
	ht.mu.Lock()
	for i := range replies {
		r := &replies[i]
		if last, found := lastDone[int(r.client)]; found {
			gap = append(gap, ms(r.sent-last))
		}
		lastDone[int(r.client)] = r.done()
		switch r.status {
		case http.StatusOK:
			ok++
			bytesOK += float64(r.bytes)
			if hm, found := ht.ms[requestID(name, r.n)]; found {
				handler = append(handler, hm)
				transport = append(transport, float64(r.latMs)-hm)
			}
		case http.StatusTooManyRequests:
			n429++
		case http.StatusServiceUnavailable:
			n503++
		}
	}
	ht.mu.Unlock()
	hist := func(name string) (float64, float64) {
		a, b := after.Server.Histograms[name], before.Server.Histograms[name]
		return a.Sum - b.Sum, float64(a.Count - b.Count)
	}
	cnt := func(name string) float64 { return after.Server.Counters[name] - before.Server.Counters[name] }
	rows, batches := hist("serve.predict.batch_rows")
	reqsInBatches, _ := hist("serve.predict.batch_requests")
	hits, misses := cnt("serve.predict.cache.hits"), cnt("serve.predict.cache.misses")
	m.set("serve.handler_p50_ms", handler.median())
	m.set("serve.handler_p99_ms", handler.quantile(0.99))
	m.set("serve.transport_p50_ms", transport.median())
	m.set("serve.batch_rows_mean", ratio(rows, batches))
	m.set("serve.batch_requests_mean", ratio(reqsInBatches, batches))
	m.set("serve.cache_hits", hits)
	m.set("serve.cache_misses", misses)
	m.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	m.set("serve.rejected_429", n429)
	m.set("serve.rejected_503", n503)
	m.set("serve.queue_depth_high", high)
	m.set("serve.activate_p50_ms", actLat.median())
	m.set("serve.response_bytes_mean", ratio(bytesOK, ok))
	m.set("gen.sent_qps", float64(len(replies))/seconds)
	m.set("gen.gap_p50_ms", gap.median())
	m.set("gen.gap_p99_ms", gap.quantile(0.99))
	m.set("gen.conns", float64(p.Conns))
	return latencies(replies), nil
}

// traceServe is a serving workload's traced run: the closed loop untraced
// and then traced for half the serving seconds each (their p50 ratio is the
// tracing overhead), the served model's training re-run in process with every
// layer timed (and checked bitwise against the daemon's artifact), and the
// layer probes.
func traceServe(rc *runCtx, sv *served, out *outcome) error {
	tr := newTracer()
	m := out.m
	ht := &handlerTimer{}
	d, err := sv.restart(sv.p.Conns, ht.wrap)
	if err != nil {
		return err
	}
	defer d.close()
	vf, err := sv.newVerifier(2)
	if err != nil {
		return err
	}
	pool, err := sv.pool(rand.New(rand.NewSource(int64(rc.seed))), sv.p.Pool)
	if err != nil {
		return err
	}
	if err := vf.expectAll(pool); err != nil {
		return err
	}
	seconds := rc.seconds * (1 - trainShare) / 2
	replies := closedLoop(d, pool, new(atomic.Int32), sv.p.Conns, time.Duration(seconds*float64(time.Second)), nil, "")
	check(replies, out, "untraced")
	traced, err := tracedServePhase(sv, d, ht, tr, pool, seconds, out, "traced")
	if err != nil {
		return err
	}
	m.set("bench.trace_overhead_frac", traced.median()/latencies(replies).median()-1)

	if err := traceServedTraining(rc, sv, tr, out); err != nil {
		return err
	}
	return finishTrace(rc, tr, out)
}

// traceServedTraining re-runs version 1's training in process on two ranks
// with every layer timed, checks that it fits the daemon's artifact byte
// for byte, times the one-rank baseline, and probes the data and model
// layers on version 1's rows and model.
func traceServedTraining(rc *runCtx, sv *served, tr *tracer, out *outcome) error {
	m := out.m
	ds := sv.trainDS[0]
	var cds, mat *dataset.Dataset
	if err := out.probe(func() (err error) {
		cds, mat, err = probeDataset(tr, m, csvText(ds), ds, rc.dir, 2048)
		return err
	}); err != nil {
		return err
	}
	defer cds.Close()
	sp := sv.specs[0]
	cfg := autoclass.DefaultSearchConfig()
	cfg.StartJList, cfg.Tries, cfg.Seed = sp.StartJList, sp.Tries, *sp.Seed
	cfg.EM.MaxCycles, cfg.EM.RelDelta, cfg.EM.Parallelism = sp.MaxCycles, sp.RelDelta, sp.Parallelism

	untraced := func(ranks int) (*autoclass.SearchResult, float64, error) {
		var res *autoclass.SearchResult
		t0 := time.Now()
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			opts := pautoclass.DefaultOptions()
			opts.EM = cfg.EM
			r, err := pautoclass.Search(c, mat, model.DefaultSpec(mat), cfg, opts)
			if c.Rank() == 0 {
				res = r
			}
			return err
		})
		return res, time.Since(t0).Seconds(), err
	}
	_, p2Sec, err := untraced(2)
	if err != nil {
		return err
	}
	st, err := tracedSearch(tr, mat, cfg, 2)
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := (&autoclass.Checkpoint{Classification: st.res.Best}).Save(&got); err != nil {
		return err
	}
	want, err := os.ReadFile(filepath.Join(sv.dir, "registry", modelID, "v1.ckpt"))
	if err != nil {
		return err
	}
	out.check(bytes.Equal(got.Bytes(), want), "in-process training of v1 differs from the daemon's artifact")
	st.report(m)
	base, p1Sec, err := untraced(1)
	if err != nil {
		return err
	}
	out.check(base.BestTry.FinalJ == st.res.BestTry.FinalJ && relDiff(base.BestTry.Score, st.res.BestTry.Score) <= 1e-9,
		"one-rank v1 training differs from the two-rank one")
	m.set("pautoclass.train_p1_s", p1Sec)
	m.set("pautoclass.speedup_p2", p1Sec/p2Sec)
	m.set("pautoclass.efficiency_p2", p1Sec/p2Sec/2)
	return out.probe(func() error {
		probeCache(tr, m, cds)
		return probeModel(tr, m, st.res.Best, sv.heldout, rc.dir)
	})
}
