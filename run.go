package repro

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pautoclass"
	"repro/internal/simnet"
)

// Run is the unified clustering entry point: every facade capability —
// sequential or parallel execution, model-spec selection, the two-level
// model search, checkpoint/resume, and instrumentation — is selected
// through functional options on one call.
//
//	res, err := repro.Run(ds)                                  // sequential, defaults
//	res, err := repro.Run(ds, repro.WithSearchConfig(cfg),
//	    repro.WithParallel(repro.ParallelConfig{Procs: 8}))    // P-AutoClass
//	res, err := repro.Run(ds, repro.WithModelSearch())         // two-level search
//
// Option combinations mirror the engine's real capabilities; impossible
// ones (e.g. WithModelSearch with WithParallel) are rejected with an error
// rather than silently ignored.
func Run(ds *Dataset, opts ...Option) (*Result, error) {
	rc := runConfig{search: DefaultSearchConfig()}
	for _, opt := range opts {
		opt(&rc)
	}
	if rc.chunkPath != "" {
		if ds != nil {
			return nil, errors.New("repro: WithChunkedData replaces the dataset argument; pass nil")
		}
		copts := ChunkOptions{}
		if rc.memBudget > 0 {
			copts.Mode = ChunkCached
			copts.MemoryBudget = rc.memBudget
		}
		cds, err := dataset.OpenChunked(rc.chunkPath, copts)
		if err != nil {
			return nil, err
		}
		defer cds.Close()
		ds = cds
	}
	if ds == nil {
		return nil, errors.New("repro: nil dataset")
	}
	if err := rc.validate(); err != nil {
		return nil, err
	}
	if rc.models {
		return runModels(ds, rc)
	}
	if rc.par != nil {
		return runParallel(ds, rc)
	}
	return runSequential(ds, rc)
}

// Result is Run's outcome. Search is set unless WithModelSearch was given,
// in which case Models is. Stats carries timing (virtual fields only under
// a simulated Machine).
type Result struct {
	Search *SearchResult
	Models *ModelSearchResult
	Stats  ParallelStats
}

// Best returns the winning classification of whichever search ran.
func (r *Result) Best() *Classification {
	switch {
	case r == nil:
		return nil
	case r.Models != nil:
		return r.Models.Best
	case r.Search != nil:
		return r.Search.Best
	}
	return nil
}

// Option configures Run.
type Option func(*runConfig)

type runConfig struct {
	search     SearchConfig
	correlated bool
	models     bool
	par        *ParallelConfig
	observer   *RunObserver
	searchObs  SearchObserver
	ckptPath   string
	ckptEvery  int
	chunkPath  string
	memBudget  int64
}

// WithSearchConfig replaces the default BIG_LOOP settings. Its
// SearchParallelism n runs n tries at once on the sequential engine,
// bitwise identical to one at a time. WithParallel runs one try at a time,
// as the paper's program does, and refuses more than one variant worker.
func WithSearchConfig(cfg SearchConfig) Option {
	return func(rc *runConfig) { rc.search = cfg }
}

// WithCorrelated models all real attributes jointly with a full-covariance
// Gaussian per class (AutoClass multi_normal_cn) instead of the default
// independent-attribute model.
func WithCorrelated() Option {
	return func(rc *runConfig) { rc.correlated = true }
}

// WithModelSearch runs AutoClass's full two-level search — every applicable
// model form × the BIG_LOOP — and reports the best across forms in
// Result.Models. Incompatible with WithCorrelated (the form ladder already
// includes the correlated spec), WithParallel and WithCheckpoint.
func WithModelSearch() Option {
	return func(rc *runConfig) { rc.models = true }
}

// WithParallel runs the search as P-AutoClass across pc.Procs SPMD ranks,
// one try at a time as the paper's program does, under either model
// spec. The result is identical to the sequential search of the same
// SearchConfig up to the paper's parallel priors formulation; all ranks
// produce the same classification and rank 0's is returned.
func WithParallel(pc ParallelConfig) Option {
	return func(rc *runConfig) { rc.par = &pc }
}

// WithObserver installs a RunObserver: per-rank metrics and trace events
// for every phase and collective, exportable as Chrome traces, JSONL
// events, or metrics JSON. The observer must have been created for the
// run's rank count — NewRunObserver(1) for a sequential run,
// NewRunObserver(pc.Procs) for a parallel one. Observation never perturbs
// the search trajectory.
func WithObserver(o *RunObserver) Option {
	return func(rc *runConfig) { rc.observer = o }
}

// WithSearchObserver streams try lifecycle events — claimed, per-cycle
// progress, converged/duplicate commits with tries done/total and
// best-so-far score — to o while the search runs: the hook behind live
// progress reporting (the daemon's /v1/jobs/{id}/progress, the CLI's
// progress line). Observation is notification-only and never perturbs the
// trajectory; with SearchConfig.SearchParallelism > 1 events arrive from
// several goroutines, so o must be safe for concurrent use. In a parallel
// run events are emitted once (rank 0), not once per rank. Incompatible
// with WithModelSearch.
func WithSearchObserver(o SearchObserver) Option {
	return func(rc *runConfig) { rc.searchObs = o }
}

// WithChunkedData trains out of core: instead of an in-memory dataset
// (pass nil), Run opens the chunk file at path — written by
// WriteChunkedDataset or streamed by a CSV ChunkWriter sink — as a
// chunk-backed dataset, runs the search over its chunk plane, and closes it
// on return. By default the file is memory-mapped (falling back to a
// bounded pread cache where mapping is unavailable); combine with
// WithMemoryBudget to cap resident bytes explicitly. The search trajectory
// is bitwise identical to a run over the in-memory rows for every backing
// and chunk size; a parallel run matches when its rank partition lands on
// the 256-row grid (n a multiple of 256·Procs).
func WithChunkedData(path string) Option {
	return func(rc *runConfig) { rc.chunkPath = path }
}

// WithMemoryBudget bounds the resident bytes of a WithChunkedData run: the
// chunk file is served through a bounded cache that pins at most
// budget/chunkSpan chunks in RAM (never below 2) and faults the rest on
// demand. Residency policy affects timing only, never results.
func WithMemoryBudget(budget int64) Option {
	return func(rc *runConfig) { rc.memBudget = budget }
}

// WithCheckpoint makes the search resumable: progress persists to path and
// a rerun with identical arguments continues where it stopped, producing
// the bitwise-identical result to an uninterrupted run. every sets the
// cycles between mid-try snapshots in a parallel run (<= 0 snapshots only
// at try boundaries); the sequential path checkpoints at try boundaries
// regardless. Sequential and parallel runs share one state-file format,
// which records the dataset's row count and the engine that wrote it: a
// file is refused by a run over another dataset size or by the other
// engine, whose priors — and so trajectory — differ in the last bits.
func WithCheckpoint(path string, every int) Option {
	return func(rc *runConfig) { rc.ckptPath = path; rc.ckptEvery = every }
}

func (rc *runConfig) validate() error {
	if rc.models {
		switch {
		case rc.correlated:
			return errors.New("repro: WithModelSearch already searches the correlated form; drop WithCorrelated")
		case rc.par != nil:
			return errors.New("repro: WithModelSearch does not support WithParallel")
		case rc.ckptPath != "":
			return errors.New("repro: WithModelSearch does not support WithCheckpoint")
		case rc.observer != nil:
			return errors.New("repro: WithModelSearch does not support WithObserver")
		case rc.searchObs != nil:
			return errors.New("repro: WithModelSearch does not support WithSearchObserver")
		}
	}
	if rc.par != nil {
		if rc.par.Procs < 1 {
			return fmt.Errorf("repro: %d procs", rc.par.Procs)
		}
		if v := rc.search.SearchWorkers(); v > 1 {
			return fmt.Errorf("repro: SearchConfig.SearchParallelism runs %d tries at once on the sequential engine; WithParallel runs one at a time", v)
		}
	}
	if rc.observer != nil {
		want := 1
		if rc.par != nil {
			want = rc.par.Procs
		}
		if rc.observer.Ranks() != want {
			return fmt.Errorf("repro: observer built for %d ranks, run has %d", rc.observer.Ranks(), want)
		}
	}
	if rc.ckptPath == "" && rc.ckptEvery != 0 {
		return errors.New("repro: WithCheckpoint needs a non-empty path")
	}
	if rc.memBudget < 0 {
		return fmt.Errorf("repro: WithMemoryBudget(%d)", rc.memBudget)
	}
	if rc.memBudget > 0 && rc.chunkPath == "" {
		return errors.New("repro: WithMemoryBudget needs WithChunkedData")
	}
	return nil
}

func runModels(ds *Dataset, rc runConfig) (*Result, error) {
	start := time.Now()
	sum := ds.Summarize()
	ms, err := autoclass.SearchModels(ds, autoclass.StandardSpecCandidates(ds, sum), rc.search, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Models: ms, Stats: ParallelStats{WallSeconds: time.Since(start).Seconds()}}, nil
}

// spec is the model the search fits: the independent-attribute default,
// or full-covariance Gaussians under WithCorrelated.
func (rc *runConfig) spec(ds *Dataset) model.Spec {
	if rc.correlated {
		return model.CorrelatedSpec(ds)
	}
	return model.DefaultSpec(ds)
}

func runSequential(ds *Dataset, rc runConfig) (*Result, error) {
	start := time.Now()
	var co autoclass.CycleObserver
	if rc.observer != nil {
		co = rc.observer.Rank(0)
	}
	res, err := autoclass.Search(ds, rc.spec(ds), rc.search, &autoclass.SearchOptions{
		Cycles: co, Observer: rc.searchObs, StatePath: rc.ckptPath,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Search: res, Stats: ParallelStats{WallSeconds: time.Since(start).Seconds()}}, nil
}

func runParallel(ds *Dataset, rc runConfig) (*Result, error) {
	pc := *rc.par
	spec := rc.spec(ds)
	var res *SearchResult
	stats := &ParallelStats{}
	start := time.Now()
	body := func(c *mpi.Comm) error {
		opts := pautoclass.Options{}
		if pc.Machine != nil {
			clk, err := simnet.NewClock(*pc.Machine)
			if err != nil {
				return err
			}
			opts.Clock = clk
		}
		// pautoclass.Search's install() binds the observer to the
		// communicator and the virtual clock.
		if rc.observer != nil {
			opts.Obs = rc.observer.Rank(c.Rank())
			if pc.Machine != nil && c.Rank() == 0 {
				rc.observer.SetMachineLabel(pc.Machine.Name)
			}
		}
		// Handed to every rank; pautoclass emits on rank 0 only.
		opts.SearchObs = rc.searchObs
		opts.Checkpoint = pautoclass.Checkpoint{Path: rc.ckptPath, Every: rc.ckptEvery}
		r, err := pautoclass.Search(c, ds, spec, rc.search, opts)
		if err != nil {
			return err
		}
		if opts.Clock != nil {
			if err := opts.Clock.SyncBarrier(c); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			res = r
			if opts.Clock != nil {
				stats.VirtualSeconds = opts.Clock.Elapsed()
				stats.VirtualCommSeconds = opts.Clock.CommSeconds()
			}
		}
		return nil
	}
	if err := mpi.RunWith(pc.Procs, mpi.RunConfig{TCP: pc.UseTCP, OpDeadline: pc.OpDeadline}, body); err != nil {
		return nil, err
	}
	stats.WallSeconds = time.Since(start).Seconds()
	return &Result{Search: res, Stats: *stats}, nil
}

// RunObserver collects per-rank metrics and trace events of a Run (see
// internal/obs): counters for cycles, collectives and bytes, phase-level
// trace spans, Chrome trace / JSONL / metrics JSON export, and the
// comm-vs-compute Breakdown.
type RunObserver = obs.Run

// NewRunObserver creates an observer for a run with the given rank count
// (1 for a sequential run).
func NewRunObserver(procs int) *RunObserver { return obs.NewRun(procs) }

// SearchObserver receives try lifecycle events (use with
// WithSearchObserver). Implementations must be notification-only and, for
// parallel searches, safe for concurrent use.
type SearchObserver = autoclass.SearchObserver

// TryEvent is one search lifecycle notification delivered to a
// SearchObserver.
type TryEvent = autoclass.TryEvent

// TryEventKind labels a TryEvent.
type TryEventKind = autoclass.TryEventKind

// Try lifecycle event kinds.
const (
	// TryClaimed fires when a worker claims a variant.
	TryClaimed = autoclass.TryClaimed
	// TryCycle fires after each EM cycle of a running try.
	TryCycle = autoclass.TryCycle
	// TryConverged fires when a try commits as a kept result.
	TryConverged = autoclass.TryConverged
	// TryDuplicate fires when a try commits as a rediscovered optimum.
	TryDuplicate = autoclass.TryDuplicate
	// TryEarlyStopped fired when basin early termination cut a try; no
	// search emits it now.
	TryEarlyStopped = autoclass.TryEarlyStopped
)

// Checkpoint is the versioned classification snapshot: Save/Load round-trip
// a fitted classification and, for mid-search snapshots, its SearchPoint.
type Checkpoint = autoclass.Checkpoint

// Prediction is the batch scoring result of Predict: per-case posterior
// memberships (row-major N×J), MAP classes, and the total held-out
// log-likelihood.
type Prediction = autoclass.Prediction

// PredictConfig tunes Predict: the worker count and whether per-row
// log-evidence is recorded (zero value: one worker, no per-row values).
type PredictConfig = autoclass.PredictConfig

// Predict scores every row of ds under a fitted classification — the batch
// inference path. It runs on the blocked kernels, shards rows across
// PredictConfig.Parallelism workers, and is safe for concurrent calls on
// one classification; results are bitwise identical for every
// Parallelism value.
func Predict(cls *Classification, ds *Dataset, cfg PredictConfig) (*Prediction, error) {
	if cls == nil || ds == nil {
		return nil, errors.New("repro: nil classification or dataset")
	}
	return autoclass.Predict(cls, ds, cfg)
}

// Predictor is a reusable batch scorer over one fitted classification: the
// per-(class, term) kernels, worker scratch and result buffers are cached
// across calls, so a serving loop over same-shaped batches allocates
// nothing in steady state. A Predictor is NOT safe for concurrent use —
// build one per goroutine, or call Predict, which does exactly that.
type Predictor = autoclass.Predictor

// NewPredictor builds a reusable scorer.
func NewPredictor(cls *Classification, cfg PredictConfig) (*Predictor, error) {
	if cls == nil {
		return nil, errors.New("repro: nil classification")
	}
	return autoclass.NewPredictor(cls, cfg)
}

// FoldRowLogLik reduces per-row log-evidence values (Prediction.RowLL,
// populated under PredictConfig.RowLogLik) to the exact LogLik a standalone
// Predict over those rows would report — the same shard grid and ascending
// fold order, so slicing a coalesced batch back into its requests loses
// nothing bitwise.
func FoldRowLogLik(rowLL []float64) float64 { return autoclass.FoldRowLogLik(rowLL) }
