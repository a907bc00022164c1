package autoclass

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/model"
)

// PaperStartJList is the start_j_list the paper's experiments use (§4).
var PaperStartJList = []int{2, 4, 8, 16, 24, 50, 64}

// SearchConfig controls the model-level search — AutoClass's BIG_LOOP
// (paper Fig. 2): select a number of classes, run a new classification try,
// eliminate duplicates, keep the best.
type SearchConfig struct {
	// StartJList are the starting class counts to try.
	StartJList []int
	// Tries is the number of random restarts per starting J.
	Tries int
	// Seed drives every random decision; runs with equal seeds are
	// identical.
	Seed uint64
	// EM configures the parameter-level search of each try.
	EM Config
	// DupScoreTol is the relative score difference below which two
	// converged tries with the same final J are considered duplicate
	// solutions.
	DupScoreTol float64
	// SearchParallelism runs independent tries as concurrent variants over
	// the shared dataset: 0 and 1 (the default) keep the historical
	// sequential BIG_LOOP, >1 uses that many variant workers, <0 uses
	// runtime.GOMAXPROCS(0). Variants commit in deterministic schedule
	// order, so the result is bitwise identical for every value — see
	// searchsched.go.
	SearchParallelism int
	// BasinEarlyStop cuts variants whose trajectory has flattened inside
	// an already-committed (finalJ, score) basin, recording them as
	// early-stopped duplicates. The decision depends on commit timing, so
	// this is the one knob excluded from the bitwise-identity guarantee;
	// it only takes effect with SearchParallelism > 1 on the sequential
	// engine (Search).
	BasinEarlyStop bool
}

// DefaultSearchConfig returns the paper-equivalent search settings.
func DefaultSearchConfig() SearchConfig {
	return SearchConfig{
		StartJList:  append([]int(nil), PaperStartJList...),
		Tries:       2,
		Seed:        1,
		EM:          DefaultConfig(),
		DupScoreTol: 1e-4,
	}
}

func (c SearchConfig) validate() error {
	if len(c.StartJList) == 0 {
		return errors.New("autoclass: empty StartJList")
	}
	for _, j := range c.StartJList {
		if j < 1 {
			return fmt.Errorf("autoclass: start J %d < 1", j)
		}
	}
	if c.Tries < 1 {
		return errors.New("autoclass: Tries < 1")
	}
	if c.DupScoreTol < 0 {
		return errors.New("autoclass: negative DupScoreTol")
	}
	return c.EM.validate()
}

// TryResult records one classification try.
type TryResult struct {
	// StartJ is the requested class count; FinalJ the count after pruning.
	StartJ, FinalJ int
	// Try indexes the restart within StartJ.
	Try int
	// Seed is the try's derived initialization seed.
	Seed uint64
	// Cycles and Converged summarize the EM run.
	Cycles    int
	Converged bool
	// LogLik, LogPost and Score are the final quality measures.
	LogLik, LogPost, Score float64
	// Duplicate marks tries discarded by duplicate elimination.
	Duplicate bool
	// EarlyStopped marks tries cut by basin early termination
	// (SearchConfig.BasinEarlyStop); such tries are always also Duplicate.
	EarlyStopped bool
}

// SearchResult is the outcome of a BIG_LOOP search.
type SearchResult struct {
	// Best is the highest-scoring non-duplicate classification.
	Best *Classification
	// BestTry is its try record.
	BestTry TryResult
	// Tries records every try in execution order.
	Tries []TryResult
	// Totals accumulates the EM phase statistics over all tries, restored
	// ones included on a resumed search — the input to the §3.1 profile
	// table (EMResult.PhaseTable).
	Totals EMResult
}

// TrialRunner executes one classification try: build a classification with
// startJ classes, initialize it from seed, and run EM to convergence. It is
// the plug-in point for runners outside this package (SearchWith); the
// engines in this repository run through the scheduler's VariantRunner.
type TrialRunner func(startJ int, seed uint64) (*Classification, EMResult, error)

// SearchWith drives the BIG_LOOP over an arbitrary TrialRunner. With
// SearchParallelism > 1 the runner is invoked from several goroutines at
// once and must be safe for concurrent use; each try's outcome must depend
// only on its (startJ, seed) arguments for the deterministic-commit
// guarantee to hold. The duplicate scan, totals fold and best tracking run
// in schedule order inside the scheduler, so the result is bitwise
// identical to the sequential BIG_LOOP at any worker count.
func SearchWith(run TrialRunner, cfg SearchConfig) (*SearchResult, error) {
	sched, err := NewSearchScheduler(cfg, cfg.SearchWorkers())
	if err != nil {
		return nil, err
	}
	return sched.Run(nil, func(int) VariantRunner {
		return func(v Variant) (*Classification, EMResult, error) { return run(v.StartJ, v.Seed) }
	})
}

// SearchOptions carries the optional parts of a sequential search. The
// zero value (or a nil pointer) runs a plain, uninstrumented search.
type SearchOptions struct {
	// Charger charges engine work to a virtual clock. A charger is not safe
	// for concurrent use, so charged searches run one variant at a time
	// regardless of SearchParallelism.
	Charger Charger
	// Cycles and Observer instrument every try's engine: the cycle
	// observer and the search observer. Instrumentation never perturbs the
	// trajectory. Phase times need no hook: they sum into the result's
	// Totals.
	Cycles   CycleObserver
	Observer SearchObserver
	// StatePath makes the search resumable: progress persists to this file
	// after every committed try, and a search started against a file that
	// holds the progress of the same search over the same dataset skips the
	// completed tries (see SearchState). On resume the search observer's
	// first events report a Done count that already includes the restored
	// prefix. The file stays in place, so a finished search run again
	// returns at once.
	StatePath string
}

// Search runs the sequential BIG_LOOP over a whole dataset, deriving priors
// from its summary. opts may be nil.
func Search(ds *dataset.Dataset, spec model.Spec, cfg SearchConfig, opts *SearchOptions) (*SearchResult, error) {
	if ds.N() == 0 {
		return nil, errors.New("autoclass: empty dataset")
	}
	if opts == nil {
		opts = &SearchOptions{}
	}
	workers := cfg.SearchWorkers()
	if opts.Charger != nil {
		workers = 1
	}
	sched, err := NewSearchScheduler(cfg, workers)
	if err != nil {
		return nil, err
	}
	sched.SetObserver(opts.Observer)
	var st *SearchState
	if opts.StatePath != "" {
		raw, err := os.ReadFile(opts.StatePath)
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		if st, err = LoadSearchState(raw, cfg, ds, EngineSequential, 0); err != nil {
			return nil, fmt.Errorf("autoclass: state file %s: %w", opts.StatePath, err)
		}
		st.Path = opts.StatePath
	}
	pr := model.NewPriors(ds, ds.Summarize())
	return sched.Run(st, nativeRunners(ds, spec, pr, cfg, opts, sched))
}

// nativeRunners builds the per-slot runners of the sequential engine.
// Every try reads one dataset view — and through it one chunk plane — and
// with several workers a shared cycle observer is serialized behind a
// lock.
func nativeRunners(ds *dataset.Dataset, spec model.Spec, pr *model.Priors, cfg SearchConfig,
	opts *SearchOptions, sched *SearchScheduler) func(slot int) VariantRunner {
	view := ds.All()
	co := opts.Cycles
	if sched.workers > 1 && co != nil {
		co = &lockedCycleObserver{o: co}
	}
	return func(int) VariantRunner {
		return func(v Variant) (*Classification, EMResult, error) {
			cls, err := NewClassification(ds, spec, pr, v.StartJ)
			if err != nil {
				return nil, EMResult{}, err
			}
			eng, err := NewEngine(view, cls, cfg.EM, nil, opts.Charger)
			if err != nil {
				return nil, EMResult{}, err
			}
			cyc := co
			if opts.Observer != nil {
				cyc = NewTryCycleObserver(opts.Observer, co, v, len(sched.variants))
			}
			if cyc != nil {
				eng.SetCycleObserver(cyc)
			}
			if cfg.BasinEarlyStop && sched.workers > 1 {
				installBasinStop(eng, cls, sched, cfg.EM)
			}
			if err := eng.InitRandom(v.Seed); err != nil {
				return nil, EMResult{}, err
			}
			em, err := eng.Run()
			if err != nil {
				if errors.Is(err, errBasinStop) {
					// Keep the partial classification and stats: the
					// scheduler commits the try as an early-stopped
					// duplicate.
					return cls, em, err
				}
				return nil, EMResult{}, err
			}
			return cls, em, nil
		}
	}
}
