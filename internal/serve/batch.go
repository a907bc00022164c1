package serve

import (
	"fmt"

	"repro/internal/autoclass"
	"repro/internal/dataset"
)

// Request batching: each servable model version gets one batcher — a
// bounded queue drained by Config.PredictProcs dispatcher goroutines. Each
// dispatcher owns a warm scorer (an autoclass.Predictor with its cached
// kernels and scratch, plus the Prediction buffer it reuses), so the
// dispatchers share nothing but the queue. Concurrent predict requests
// against the same version coalesce into a single scoring pass: a
// dispatcher drains whatever is queued (up to Config.PredictMaxBatchRows
// rows), lays the requests out back to back with each one padded to the
// next KernelBlockRows multiple by all-missing rows, scores once, and
// slices the results back per request. With several dispatchers,
// independent batches of one version score side by side.
//
// Neither coalescing nor the dispatcher count shows in the bits. Every
// per-row output is a pure function of that row; padding rows land in
// their own kernel blocks (the per-request alignment guarantees no block
// straddles two requests) and are sliced away; and each request's
// log-likelihood is rebuilt from the gathered per-row log-evidence with
// autoclass.FoldRowLogLik — the exact association of scoring that request
// alone. TestFoldRowLogLikSubBatch (autoclass) proves the layout identity;
// TestServeBatchingBitwise proves it end to end over HTTP at one, two and
// three dispatchers.

// predictJob is one HTTP request's unit of work.
type predictJob struct {
	ds *dataset.Dataset
	// resp is buffered so the dispatcher's send never blocks on a client
	// that gave up (Close unblocks waiters through s.stop).
	resp chan predictOut
}

type predictOut struct {
	resp *PredictResponse
	err  error
}

// batcherKey identifies one servable model version: a registered model ID
// and one of its published versions (1 and up).
type batcherKey struct {
	model   string
	version int
}

type batcher struct {
	s     *Server
	key   batcherKey
	cls   *autoclass.Classification
	attrs []dataset.Attribute
	queue chan *predictJob
}

// scorer is one dispatcher's warm state, never touched from another
// goroutine: its own Predictor (kernels and scratch), built on the first
// batch, and the Prediction buffer every batch reuses.
type scorer struct {
	pred *autoclass.Predictor
	buf  autoclass.Prediction
}

// batcherFor returns (creating on first use) the batcher serving key and
// starts its Config.PredictProcs dispatchers.
func (s *Server) batcherFor(key batcherKey, m *loadedModel) (*batcher, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.batchers[key]; ok {
		return b, nil
	}
	if s.closed {
		return nil, fmt.Errorf("server is shutting down")
	}
	schema, err := buildDataset("batch", m.attrs, nil)
	if err != nil {
		return nil, err
	}
	b := &batcher{
		s:     s,
		key:   key,
		cls:   m.cls,
		attrs: schema.Attrs(),
		queue: make(chan *predictJob, s.cfg.PredictQueueDepth),
	}
	s.batchers[key] = b
	s.batcherWG.Add(s.cfg.PredictProcs)
	for i := 0; i < s.cfg.PredictProcs; i++ {
		go b.run()
	}
	return b, nil
}

// warmBatchers counts the live per-version kernel caches of one model.
func (s *Server) warmBatchers(model string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.batchers {
		if k.model == model {
			n++
		}
	}
	return n
}

// run is one dispatcher's loop: block for one job, greedily coalesce
// whatever else is queued, score once on its own scorer, answer everyone.
func (b *batcher) run() {
	defer b.s.batcherWG.Done()
	var sc scorer
	maxRows := b.s.cfg.PredictMaxBatchRows
	for {
		select {
		case <-b.s.stop:
			return
		case j := <-b.queue:
			jobs := []*predictJob{j}
			rows := j.ds.N()
		coalesce:
			for rows < maxRows {
				select {
				case j2 := <-b.queue:
					jobs = append(jobs, j2)
					rows += j2.ds.N()
				default:
					break coalesce
				}
			}
			b.s.gPredQueue.Add(float64(-len(jobs)))
			b.dispatch(&sc, jobs, rows)
		}
	}
}

// dispatch scores one coalesced batch and answers every job in it.
func (b *batcher) dispatch(sc *scorer, jobs []*predictJob, rows int) {
	b.s.hBatchRows.Observe(float64(rows))
	b.s.hBatchReqs.Observe(float64(len(jobs)))

	if len(jobs) == 1 {
		// Single request: score it directly, no copy, no padding.
		p, err := b.score(sc, jobs[0].ds)
		if err != nil {
			jobs[0].resp <- predictOut{err: err}
			return
		}
		jobs[0].resp <- predictOut{resp: sliceResponse(p, 0, jobs[0].ds.N())}
		return
	}

	// Coalesced: requests back to back, each padded to the block grid.
	batch, err := dataset.New("batch", b.attrs)
	if err != nil {
		b.fail(jobs, err)
		return
	}
	pad := make([]float64, len(b.attrs))
	for k := range pad {
		pad[k] = dataset.Missing
	}
	buf := make([]float64, len(b.attrs))
	offs := make([]int, len(jobs))
	for qi, j := range jobs {
		offs[qi] = batch.N()
		for i := 0; i < j.ds.N(); i++ {
			if err := batch.AppendRow(j.ds.RowTo(buf, i)); err != nil {
				b.fail(jobs, err)
				return
			}
		}
		for batch.N()%autoclass.KernelBlockRows != 0 {
			if err := batch.AppendRow(pad); err != nil {
				b.fail(jobs, err)
				return
			}
		}
	}
	p, err := b.score(sc, batch)
	if err != nil {
		b.fail(jobs, err)
		return
	}
	for qi, j := range jobs {
		j.resp <- predictOut{resp: sliceResponse(p, offs[qi], j.ds.N())}
	}
}

func (b *batcher) fail(jobs []*predictJob, err error) {
	for _, j := range jobs {
		j.resp <- predictOut{err: err}
	}
}

// score runs one batch through the dispatcher's warm scorer with per-row
// log-evidence on, so sliceResponse can rebuild sub-batch log-likelihoods
// bitwise. Kernels and buffers persist across calls; the returned
// Prediction is the scorer's buffer, valid until its next batch.
func (b *batcher) score(sc *scorer, ds *dataset.Dataset) (*autoclass.Prediction, error) {
	if sc.pred == nil {
		pred, err := autoclass.NewPredictor(b.cls, autoclass.PredictConfig{
			Parallelism: b.s.cfg.PredictParallelism, RowLogLik: true})
		if err != nil {
			return nil, err
		}
		sc.pred = pred
	}
	if err := sc.pred.PredictInto(ds.All(), &sc.buf); err != nil {
		return nil, err
	}
	return &sc.buf, nil
}

// sliceResponse extracts one request's rows [off, off+n) from a scored
// batch. Memberships and MAP copy out (the batch buffer is reused);
// LogLik folds the request's own per-row log-evidence — bitwise what a
// standalone scoring returns.
func sliceResponse(p *autoclass.Prediction, off, n int) *PredictResponse {
	resp := &PredictResponse{
		N:           n,
		J:           p.J,
		MAP:         make([]int, n),
		LogLik:      autoclass.FoldRowLogLik(p.RowLL[off : off+n]),
		Memberships: make([][]float64, n),
	}
	copy(resp.MAP, p.MAP[off:off+n])
	for i := 0; i < n; i++ {
		resp.Memberships[i] = append([]float64(nil), p.Membership(off+i)...)
	}
	return resp
}
