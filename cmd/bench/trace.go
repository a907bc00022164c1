package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pautoclass"
)

// span is one timed call into a layer. Spans of one predict request share
// its request ID; Parent is the span that caused this one (0 for none).
type span struct {
	name       string
	tid        int
	id, parent int
	start, end time.Duration
	reqID      string
}

// tracer keeps spans in memory and writes them as one Chrome-trace file
// when the run ends. A nil tracer records nothing, so the untraced paths
// share the traced code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	byReq map[string]int // request ID → client span, the handler's parent
}

func newTracer() *tracer { return &tracer{t0: time.Now(), byReq: map[string]int{}} }

// begin opens a span now and returns its ID.
func (t *tracer) begin(name string, tid, parent int, reqID string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 && reqID != "" {
		parent = t.byReq[reqID]
	}
	if tid == 0 && parent != 0 {
		tid = t.spans[parent-1].tid
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, tid: tid, id: id, parent: parent, start: now, end: -1, reqID: reqID})
	if reqID != "" && parent == 0 {
		t.byReq[reqID] = id
	}
	return id
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span whose ends were stamped elsewhere.
func (t *tracer) add(name string, tid, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, tid: tid, id: len(t.spans) + 1, parent: parent,
		start: start.Sub(t.t0), end: end.Sub(t.t0)})
	t.mu.Unlock()
}

// write renders the spans as Chrome-trace complete events. Each event
// carries its parent, request ID and self time: its duration minus the part
// of it that its children cover.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent != 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		ev := map[string]any{
			"name": s.name, "cat": strings.SplitN(s.name, ".", 2)[0], "ph": "X", "pid": 1, "tid": s.tid,
			"ts": float64(s.start.Nanoseconds()) / 1e3, "dur": float64((s.end - s.start).Nanoseconds()) / 1e3,
			"args": map[string]any{"id": s.id, "parent": s.parent, "request_id": s.reqID,
				"self_us": float64(selfTime(s, children[s.id]).Nanoseconds()) / 1e3},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.Write(b)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// selfTime is s's duration minus the union of its children's intervals,
// clipped to s.
func selfTime(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	covered := time.Duration(0)
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		lo, hi := max(k.start, s.start), min(k.end, s.end)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			covered += curEnd - cur
			cur, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	covered += curEnd - cur
	return (s.end - s.start) - covered
}

// timingReducer wraps a rank's Allreduce reducer, counting and timing every
// exchange. Each rank owns one; it is used from the rank's goroutine only.
type timingReducer struct {
	inner         autoclass.Reducer
	calls, values int
	sec           float64
}

func (r *timingReducer) ReduceInPlace(buf []float64) error {
	t0 := time.Now()
	err := r.inner.ReduceInPlace(buf)
	r.sec += time.Since(t0).Seconds()
	r.calls++
	r.values += len(buf)
	return err
}

// collCounter is a CollectiveObserver counting a rank's collectives.
type collCounter struct {
	collectives, steps, sent int
}

func (c *collCounter) ObserveCollective(_ string, steps, sent int) {
	c.collectives++
	c.steps += steps
	c.sent += sent
}

// cycleClock is a CycleObserver stamping each cycle's end; a cycle's time
// is the gap since the previous stamp (or the start of Run).
type cycleClock struct {
	tr          *tracer
	tid, parent int
	last        time.Time
	ms          sample
	sec         float64
}

func (c *cycleClock) ObserveCycle(autoclass.CycleInfo) {
	now := time.Now()
	c.tr.add("autoclass.cycle", c.tid, c.parent, c.last, now)
	d := now.Sub(c.last)
	c.ms = append(c.ms, ms(d))
	c.sec += d.Seconds()
	c.last = now
}

// rankTrace is what one rank of a traced search measured.
type rankTrace struct {
	red       *timingReducer
	coll      collCounter
	clock     cycleClock
	priorsSec float64
	initSec   float64
	trySec    float64
	localRows int
}

// searchTrace is a traced search: the result, its wall time and each rank's
// measurements.
type searchTrace struct {
	res   *autoclass.SearchResult
	wall  float64
	ranks []*rankTrace
}

// tracedSearch runs the calls pautoclass.Search (or, with ranks == 0, the
// sequential search) makes — PartitionView, ParallelPriors, then
// autoclass.SearchWith over a TrialRunner that builds each try's engine
// with a timing Reducer and a cycle observer — timing each from outside.
func tracedSearch(tr *tracer, ds *dataset.Dataset, cfg autoclass.SearchConfig, ranks int) (*searchTrace, error) {
	cfg.SearchParallelism = 1
	spec := model.DefaultSpec(ds)
	st := &searchTrace{}
	start := time.Now()
	root := tr.begin("bench.search", 0, 0, "")
	defer tr.end(root)
	if ranks == 0 {
		rt := &rankTrace{localRows: ds.N()}
		st.ranks = []*rankTrace{rt}
		sp := tr.begin("model.NewPriors", 1, root, "")
		t0 := time.Now()
		pr := model.NewPriors(ds, ds.Summarize())
		rt.priorsSec = time.Since(t0).Seconds()
		tr.end(sp)
		res, err := autoclass.SearchWith(traceRunner(tr, rt, 1, root, ds, ds.All, spec, pr, cfg, nil), cfg)
		if err != nil {
			return nil, err
		}
		st.res = res
		st.wall = time.Since(start).Seconds()
		return st, nil
	}
	st.ranks = make([]*rankTrace, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		rt := &rankTrace{}
		st.ranks[c.Rank()] = rt
		tid := c.Rank() + 1
		c.SetObserver(&rt.coll)
		sp := tr.begin("pautoclass.PartitionView", tid, root, "")
		view, err := pautoclass.PartitionView(c, ds)
		tr.end(sp)
		if err != nil {
			return err
		}
		rt.localRows = view.N()
		sp = tr.begin("pautoclass.ParallelPriors", tid, root, "")
		t0 := time.Now()
		pr, err := pautoclass.ParallelPriors(c, view, nil)
		rt.priorsSec = time.Since(t0).Seconds()
		tr.end(sp)
		if err != nil {
			return err
		}
		rt.red = &timingReducer{inner: pautoclass.NewAllreduceReducer(c, nil)}
		viewFn := func() *dataset.View { return view }
		res, err := autoclass.SearchWith(traceRunner(tr, rt, tid, root, ds, viewFn, spec, pr, cfg, rt.red), cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			st.res = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.wall = time.Since(start).Seconds()
	return st, nil
}

// traceRunner is the bench's TrialRunner: one try as the engines run it,
// with each public call spanned.
func traceRunner(tr *tracer, rt *rankTrace, tid, root int, ds *dataset.Dataset, view func() *dataset.View,
	spec model.Spec, pr *model.Priors, cfg autoclass.SearchConfig, red *timingReducer) autoclass.TrialRunner {
	return func(startJ int, seed uint64) (*autoclass.Classification, autoclass.EMResult, error) {
		t0 := time.Now()
		try := tr.begin("autoclass.try", tid, root, "")
		defer func() {
			tr.end(try)
			rt.trySec += time.Since(t0).Seconds()
		}()
		cls, err := autoclass.NewClassification(ds, spec, pr, startJ)
		if err != nil {
			return nil, autoclass.EMResult{}, err
		}
		var reducer autoclass.Reducer
		if red != nil {
			reducer = red
		}
		eng, err := autoclass.NewEngine(view(), cls, cfg.EM, reducer, nil)
		if err != nil {
			return nil, autoclass.EMResult{}, err
		}
		sp := tr.begin("autoclass.InitRandom", tid, try, "")
		ti := time.Now()
		err = eng.InitRandom(seed)
		rt.initSec += time.Since(ti).Seconds()
		tr.end(sp)
		if err != nil {
			return nil, autoclass.EMResult{}, err
		}
		sp = tr.begin("autoclass.Run", tid, try, "")
		rt.clock.tr, rt.clock.tid, rt.clock.parent, rt.clock.last = tr, tid, sp, time.Now()
		eng.SetCycleObserver(&rt.clock)
		em, err := eng.Run()
		tr.end(sp)
		if err != nil {
			return nil, autoclass.EMResult{}, err
		}
		return cls, em, nil
	}
}

// report sets the per-layer metrics of a traced search: the engine layer
// from rank 0, the collective layer when the search ran on ranks, and the
// spread of compute across ranks.
func (st *searchTrace) report(m metrics) {
	r0 := st.ranks[0]
	tot := st.res.Totals
	m.set("model.priors_s", r0.priorsSec)
	m.set("autoclass.tries", float64(len(st.res.Tries)))
	m.set("autoclass.cycles", float64(tot.Cycles))
	m.set("autoclass.init_s", r0.initSec)
	m.set("autoclass.cycle_s", r0.clock.sec)
	m.set("autoclass.cycle_p50_ms", r0.clock.ms.median())
	m.set("autoclass.cycle_p99_ms", r0.clock.ms.quantile(0.99))
	m.set("autoclass.estep_s", tot.WtsSeconds)
	m.set("autoclass.mstep_s", tot.ParamsSeconds)
	m.set("autoclass.approx_s", tot.ApproxSeconds)
	m.set("autoclass.estep_row_cycles_per_s", ratio(float64(r0.localRows)*float64(tot.Cycles), tot.WtsSeconds))
	m.set("autoclass.search_overhead_s", st.wall-r0.priorsSec-r0.trySec)
	if r0.red == nil {
		return
	}
	m.set("mpi.allreduce_calls", float64(r0.red.calls))
	m.set("mpi.allreduce_values", float64(r0.red.values))
	m.set("mpi.allreduce_s", r0.red.sec)
	m.set("mpi.allreduce_mean_us", ratio(r0.red.sec*1e6, float64(r0.red.calls)))
	m.set("mpi.comm_frac", ratio(r0.red.sec, st.wall))
	m.set("mpi.collectives", float64(r0.coll.collectives))
	m.set("mpi.steps", float64(r0.coll.steps))
	m.set("mpi.sent_values", float64(r0.coll.sent))
	maxC, sumC := 0.0, 0.0
	for _, r := range st.ranks {
		c := r.clock.sec - r.red.sec
		sumC += c
		if c > maxC {
			maxC = c
		}
	}
	m.set("pautoclass.rank_compute_imbalance", ratio(maxC, sumC/float64(len(st.ranks))))
}

// traceTrain is a training workload's traced run: the untraced search as
// the reference, the same search traced (which must match it bitwise), the
// scaling pair (one rank against two, or one worker against two), and
// probes of the layers the path does not run.
func traceTrain(rc *runCtx, p trainParams, t *trainer, d *trainData, out *outcome) error {
	tr := newTracer()
	m := out.m
	chunkRows := p.ChunkRows
	if chunkRows == 0 {
		chunkRows = 2048
	}
	var cds, mat *dataset.Dataset
	if err := out.probe(func() (err error) {
		cds, mat, err = probeDataset(tr, m, d.csv, d.want, rc.dir, chunkRows)
		return err
	}); err != nil {
		return err
	}
	defer cds.Close()
	cfg := searchConfig(p, rc.seed)

	t0 := time.Now()
	ref, err := t.search(cfg, p.Ranks, nil)
	if err != nil {
		return fmt.Errorf("reference search: %w", err)
	}
	untraced := time.Since(t0).Seconds()

	var st *searchTrace
	if p.OOC {
		// The traced search walks the same bounded cache the facade would
		// open, so its counters are the training's own.
		cs := cds.ChunkStore().(interface{ Stats() dataset.CacheStats })
		before := cs.Stats()
		if st, err = tracedSearch(tr, cds, cfg, 0); err != nil {
			return fmt.Errorf("traced search: %w", err)
		}
		reportCache(m, before, cs.Stats())
	} else if st, err = tracedSearch(tr, mat, cfg, p.Ranks); err != nil {
		return fmt.Errorf("traced search: %w", err)
	}
	out.check(sameSearch(ref, st.res), "traced search differs from the untraced search")
	st.report(m)
	m.set("bench.trace_overhead_frac", st.wall/untraced-1)

	// The scaling pair: the workload's search and the same problem on one
	// rank, or, for the one-worker out-of-core workload, on two intra-rank
	// workers.
	alt := cfg
	if p.OOC {
		alt.EM.Parallelism = 2
	}
	t0 = time.Now()
	other, err := t.search(alt, 1, nil)
	if err != nil {
		return fmt.Errorf("scaling search: %w", err)
	}
	p1Sec, p2Sec := time.Since(t0).Seconds(), untraced
	if p.OOC {
		p1Sec, p2Sec = p2Sec, p1Sec
	}
	out.check(other.BestTry.FinalJ == ref.BestTry.FinalJ && relDiff(other.BestTry.Score, ref.BestTry.Score) <= 1e-9,
		"scaling search's best (J=%d, score %v) differs from the workload's best (J=%d, score %v)",
		other.BestTry.FinalJ, other.BestTry.Score, ref.BestTry.FinalJ, ref.BestTry.Score)
	m.set("pautoclass.train_p1_s", p1Sec)
	m.set("pautoclass.speedup_p2", p1Sec/p2Sec)
	m.set("pautoclass.efficiency_p2", p1Sec/p2Sec/2)

	err = out.probe(func() error {
		probeCache(tr, m, cds)
		if err := probeModel(tr, m, ref.Best, d.heldout, rc.dir); err != nil {
			return err
		}
		if p.OOC {
			// No collectives on this path: the collective layer is measured
			// by a small two-rank search over the same rows.
			if err := probeCollectives(tr, m, mat, rc.seed); err != nil {
				return err
			}
		}
		return probeServe(rc, tr, out)
	})
	if err != nil {
		return err
	}
	return finishTrace(rc, tr, out)
}

func relDiff(a, b float64) float64 {
	d := abs(a - b)
	if s := max(abs(a), abs(b)); s > 0 {
		return d / s
	}
	return d
}

func reportCache(m metrics, before, after dataset.CacheStats) {
	loads := float64(after.Loads - before.Loads)
	hits := float64(after.Hits - before.Hits)
	m.set("dataset.cache_loads", loads)
	m.set("dataset.cache_hits", hits)
	m.set("dataset.cache_evictions", float64(after.Evictions-before.Evictions))
	m.set("dataset.cache_hit_ratio", ratio(hits, hits+loads))
	m.set("dataset.cache_high_water_chunks", float64(after.HighWater))
}

// finishTrace writes the span file.
func finishTrace(rc *runCtx, tr *tracer, out *outcome) error {
	if rc.traceOut == "" {
		return nil
	}
	if err := tr.write(rc.traceOut); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	out.traceFile = rc.traceOut
	return nil
}
