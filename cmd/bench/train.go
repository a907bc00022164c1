package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pautoclass"
)

// trainData is a training workload's generated inputs: the rows as CSV
// text (what the program under test ingests), the rows as generated (what
// the ingest is checked against), and held-out rows from seed+1.
type trainData struct {
	csv     []byte
	want    *dataset.Dataset
	heldout *dataset.Dataset
}

func genTrain(p trainParams, seed uint64) (*trainData, error) {
	gen := func(n int, s uint64) (*dataset.Dataset, error) {
		var ds *dataset.Dataset
		var err error
		switch p.Mixture {
		case "paper":
			ds, _, err = datagen.PaperMixture().Generate(n, s)
		case "protein":
			ds, _, err = datagen.ProteinMixture().Generate(n, s)
		default:
			err = fmt.Errorf("unknown mixture %q", p.Mixture)
		}
		if err != nil {
			return nil, err
		}
		if p.Missing > 0 {
			if _, err := datagen.InjectMissing(ds, p.Missing, s^0x5eed); err != nil {
				return nil, err
			}
		}
		return ds, nil
	}
	want, err := gen(p.N, seed)
	if err != nil {
		return nil, err
	}
	heldout, err := gen(p.Heldout, seed+1)
	if err != nil {
		return nil, err
	}
	return &trainData{csv: csvText(want), want: want, heldout: heldout}, nil
}

// csvText renders a dataset as the CSV the importer reads: a header, reals
// in shortest round-trip form, discrete values by level name, "?" for
// missing.
func csvText(ds *dataset.Dataset) []byte {
	var b bytes.Buffer
	for k, a := range ds.Attrs() {
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Name)
	}
	b.WriteByte('\n')
	row := make([]float64, ds.NumAttrs())
	var num []byte
	for i := 0; i < ds.N(); i++ {
		ds.RowTo(row, i)
		for k, v := range row {
			if k > 0 {
				b.WriteByte(',')
			}
			switch {
			case dataset.IsMissing(v):
				b.WriteByte('?')
			case ds.Attr(k).Type == dataset.Discrete:
				b.WriteString(ds.Attr(k).Levels[int(v)])
			default:
				num = strconv.AppendFloat(num[:0], v, 'g', -1, 64)
				b.Write(num)
			}
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// ingestCSV parses the CSV text into a materialized dataset.
func ingestCSV(d *trainData) (*dataset.Dataset, error) {
	return dataset.ReadCSVWith(bytes.NewReader(d.csv), d.want.Name, dataset.CSVOptions{Attrs: d.want.Attrs()})
}

// ingestChunked streams the CSV text through the importer's chunk sink into
// a chunk file and opens it under a resident budget of a tenth of the file.
// It returns the open dataset and the budget.
func ingestChunked(d *trainData, path string, chunkRows int) (*dataset.Dataset, int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	w, err := dataset.NewChunkWriter(f, d.want.Name, d.want.Attrs(), chunkRows)
	if err != nil {
		return nil, 0, err
	}
	if _, err := dataset.ReadCSVWith(bytes.NewReader(d.csv), d.want.Name,
		dataset.CSVOptions{Attrs: d.want.Attrs(), Sink: w}); err != nil {
		return nil, 0, err
	}
	if err := w.Close(); err != nil {
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	budget := fi.Size() / 10
	ds, err := dataset.OpenChunked(path, dataset.ChunkOptions{Mode: dataset.ChunkCached, MemoryBudget: budget})
	return ds, budget, err
}

// searchConfig is the BIG_LOOP configuration of a training workload. The
// convergence test is off (RelDelta 0), so every try runs MaxCycles cycles.
func searchConfig(p trainParams, seed uint64) autoclass.SearchConfig {
	cfg := autoclass.DefaultSearchConfig()
	cfg.StartJList = append([]int(nil), p.StartJ...)
	cfg.Tries = p.Tries
	cfg.Seed = seed
	cfg.EM.MaxCycles = p.MaxCycles
	cfg.EM.RelDelta = 0
	cfg.EM.Parallelism = p.Parallelism
	return cfg
}

// trainer runs a workload's search through its public entry point:
// pautoclass.Search under mpi.Run, or repro.Run over the chunk file for the
// out-of-core workload.
type trainer struct {
	p         trainParams
	ds        *dataset.Dataset // materialized rows (nil when out of core)
	chunkPath string
	budget    int64
	ckptPath  string
}

func (t *trainer) search(cfg autoclass.SearchConfig, ranks int, so autoclass.SearchObserver) (*autoclass.SearchResult, error) {
	if t.p.OOC {
		// A leftover state file would make the search resume instead of
		// run, so every search starts from a fresh one.
		if err := os.Remove(t.ckptPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		opts := []repro.Option{repro.WithChunkedData(t.chunkPath), repro.WithMemoryBudget(t.budget),
			repro.WithCheckpoint(t.ckptPath, 0), repro.WithSearchConfig(cfg)}
		if so != nil {
			opts = append(opts, repro.WithSearchObserver(so))
		}
		res, err := repro.Run(nil, opts...)
		if err != nil {
			return nil, err
		}
		return res.Search, nil
	}
	var res *autoclass.SearchResult
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		opts := pautoclass.DefaultOptions()
		opts.EM = cfg.EM
		opts.SearchObs = so
		r, err := pautoclass.Search(c, t.ds, model.DefaultSpec(t.ds), cfg, opts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	return res, err
}

// tryTimer times every try of a search from its claim to its commit, by
// the try's index in the search's schedule, and scales each by the
// calibration run at its claim (calib.go). The observer is called on the
// search's (rank 0's) goroutine, so the kernel runs while the try waits to
// start. The search is sequential, so one try is open at a time; the lock
// covers that goroutine against the reader.
type tryTimer struct {
	cal     *calib
	mu      sync.Mutex
	claimed map[int]claim
	took    map[int]float64 // scaled seconds
	wall    float64         // wall seconds of the tries, unscaled
	calSec  float64         // wall seconds spent calibrating
}

type claim struct {
	at    time.Time
	scale float64
}

func newTryTimer(cal *calib) *tryTimer {
	return &tryTimer{cal: cal, claimed: map[int]claim{}, took: map[int]float64{}}
}

func (t *tryTimer) ObserveTry(ev autoclass.TryEvent) {
	if ev.Kind == autoclass.TryClaimed {
		t0 := time.Now()
		scale := t.cal.run()
		now := time.Now()
		t.mu.Lock()
		t.claimed[ev.Index] = claim{at: now, scale: scale}
		t.calSec += now.Sub(t0).Seconds()
		t.mu.Unlock()
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case autoclass.TryConverged, autoclass.TryDuplicate, autoclass.TryEarlyStopped:
		if c, ok := t.claimed[ev.Index]; ok {
			sec := now.Sub(c.at).Seconds()
			t.took[ev.Index] = sec * c.scale
			t.wall += sec
			delete(t.claimed, ev.Index)
		}
	}
}

// take returns the scaled seconds each try of the last search took, the
// wall seconds of its tries and of its calibrations, and starts afresh for
// the next search.
func (t *tryTimer) take() (took map[int]float64, wall, calSec float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	took, wall, calSec = t.took, t.wall, t.calSec
	t.took, t.wall, t.calSec = map[int]float64{}, 0, 0
	return took, wall, calSec
}

// sameSearch reports whether two searches made the same decisions with the
// same numbers: every try record and the best try, floats compared by bits.
func sameSearch(a, b *autoclass.SearchResult) bool {
	if a == nil || b == nil || len(a.Tries) != len(b.Tries) || !sameTry(a.BestTry, b.BestTry) {
		return false
	}
	for i := range a.Tries {
		if !sameTry(a.Tries[i], b.Tries[i]) {
			return false
		}
	}
	return true
}

func sameTry(a, b autoclass.TryResult) bool {
	bits := math.Float64bits
	return a.StartJ == b.StartJ && a.FinalJ == b.FinalJ && a.Try == b.Try && a.Seed == b.Seed &&
		a.Cycles == b.Cycles && a.Converged == b.Converged && a.Duplicate == b.Duplicate &&
		a.EarlyStopped == b.EarlyStopped && bits(a.LogLik) == bits(b.LogLik) &&
		bits(a.LogPost) == bits(b.LogPost) && bits(a.Score) == bits(b.Score)
}

// heldoutNLL is the fitted model's negative held-out log-likelihood per row,
// through the library's batch predict call.
func heldoutNLL(best *autoclass.Classification, heldout *dataset.Dataset) (float64, error) {
	pred, err := autoclass.Predict(best, heldout, autoclass.PredictConfig{})
	if err != nil {
		return 0, err
	}
	return -pred.LogLik / float64(heldout.N()), nil
}

// setupReps is how many times a run sets up, reporting the median.
func setupReps(quick bool) int {
	if quick {
		return 2
	}
	return 15
}

// prepareTrain generates the inputs and times the set-up: ingest of the CSV
// text until the dataset is ready to train, repeated, each scaled by a
// one-core calibration run right before it (the ingest runs on one
// goroutine), with every ingest checked against the generated rows outside
// the timed window.
func prepareTrain(rc *runCtx, p trainParams, out *outcome) (*trainer, *trainData, error) {
	d, err := genTrain(p, rc.seed)
	if err != nil {
		return nil, nil, err
	}
	t := &trainer{p: p, ckptPath: filepath.Join(rc.dir, "search.state")}
	cal := newCalib(1, true)
	var setup, wall sample
	for i := 0; i < setupReps(rc.quick); i++ {
		runtime.GC()
		scale := cal.run()
		start := time.Now()
		var ds *dataset.Dataset
		if p.OOC {
			t.chunkPath = filepath.Join(rc.dir, "train.chunks")
			ds, t.budget, err = ingestChunked(d, t.chunkPath, p.ChunkRows)
		} else {
			ds, err = ingestCSV(d)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("ingest: %w", err)
		}
		sec := time.Since(start).Seconds()
		setup = append(setup, sec*scale)
		wall = append(wall, sec)
		out.check(ds.Equal(d.want), "ingest %d: dataset differs from the generated rows", i)
		if p.OOC {
			if err := ds.Close(); err != nil {
				return nil, nil, err
			}
		} else {
			t.ds = ds
		}
	}
	out.m["setup_s"] = setup.median()
	out.stats["setup_s"] = setup.stat()
	out.stats["setup_wall_s"] = wall.stat()
	out.stats["setup_calib_s"] = cal.took.stat()
	return t, d, nil
}

// runTrain is a training workload: set up, then run the search back to
// back for the measured seconds (at least three times), checking every
// result against the first, and score the best model on held-out rows.
//
// Every search does the same work, try for try, so each try is timed
// once per search, scaled by the calibration run at its claim, and the run
// reports medians over its searches: a try's time is its median, and the
// search time (train_s) is the sum of its tries' medians plus the median
// of the rest of the search (priors and bookkeeping, scaled by a
// calibration run before the search). p50_ms is the median of the tries'
// medians, and throughput_per_s is tries per second of that search time.
// The kernel runs on as many goroutines as the search has ranks. Every
// search starts from a collected heap, as each benchmark of the testing
// package does, so garbage of the previous search does not set when the
// next one collects and peak RSS repeats from run to run.
func runTrain(rc *runCtx, p trainParams) (*outcome, error) {
	out := newOutcome()
	t, d, err := prepareTrain(rc, p, out)
	if err != nil {
		return nil, err
	}
	if rc.trace {
		return out, traceTrain(rc, p, t, d, out)
	}
	cfg := searchConfig(p, rc.seed)
	cal := newCalib(p.Ranks, true)
	tt := newTryTimer(cal)
	tries := map[int]sample{}
	var wall, rest sample
	var first *autoclass.SearchResult
	minRuns := 3
	if rc.quick {
		minRuns = 1
	}
	start := time.Now()
	for len(wall) < minRuns || time.Since(start).Seconds() < rc.seconds {
		runtime.GC()
		scale := cal.run()
		t0 := time.Now()
		res, err := t.search(cfg, p.Ranks, tt)
		el := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("search: %w", err)
		}
		took, tryWall, calSec := tt.take()
		if first == nil {
			first = res
		}
		out.check(sameSearch(first, res) && len(took) == len(res.Tries),
			"search %d differs from the first search on the same inputs (%d tries timed)", len(wall)+1, len(took))
		for i, sec := range took {
			tries[i] = append(tries[i], sec)
		}
		wall = append(wall, el-calSec)
		rest = append(rest, (el-calSec-tryWall)*scale)
		if len(wall) >= 50 {
			break
		}
	}
	nll, err := heldoutNLL(first.Best, d.heldout)
	if err != nil {
		return nil, err
	}
	out.check(!math.IsNaN(nll) && !math.IsInf(nll, 0), "held-out log-likelihood is not finite")
	out.m["heldout_nll_per_row"] = nll
	total := rest.median()
	var tryMs sample
	for _, s := range tries {
		total += s.median()
		tryMs = append(tryMs, s.median()*1e3)
	}
	out.m["train_s"] = total
	out.m["p50_ms"] = tryMs.median()
	out.m["throughput_per_s"] = float64(len(tryMs)) / total
	out.stats["try_ms"] = tryMs.stat()
	out.stats["search_wall_s"] = wall.stat()
	out.stats["calib_s"] = cal.took.stat()
	return out, nil
}
