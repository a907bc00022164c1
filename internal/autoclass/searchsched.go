package autoclass

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/stats"
)

// BIG_LOOP variant parallelism.
//
// The paper parallelizes *inside* one base_cycle — every rank advances the
// same classification try in lockstep. The outer BIG_LOOP over start_j_list
// × tries is embarrassingly parallel by construction: each try is an
// independent EM run whose initialization seed is derived from the search
// seed alone, never from another try's outcome. The scheduler below runs
// those tries as concurrent variants over one shared dataset (the
// VariantDBSCAN pattern: many parameter variants, one in-memory copy of the
// data) while keeping the search result serial-equivalent (the C4 /
// ClusterWild! pattern: optimistic concurrent execution, deterministic
// commit order).
//
// Determinism invariant: tries may *execute* in any order on any number of
// workers, but they *commit* — duplicate scan, Totals fold, best update,
// Tries append — strictly in the sequential schedule order, through the
// exact fold the one-worker loop uses. Each try's outcome depends only on
// (startJ, derived seed), so the committed SearchResult is bitwise
// identical to the sequential oracle for every worker count.

// Variant identifies one schedulable BIG_LOOP try: its position in the
// sequential schedule, its parameters, and its derived initialization seed.
type Variant struct {
	// Index is the position in the sequential BIG_LOOP order — the commit
	// order.
	Index int
	// StartJ and Try locate the variant in the start_j_list × tries grid.
	StartJ, Try int
	// Seed is the variant's derived initialization seed.
	Seed uint64
}

// Variants expands the BIG_LOOP schedule: every (startJ, try) pair in
// sequential order, each with its seed drawn from the deterministic chain
// SearchWith uses. The expansion depends only on StartJList, Tries and
// Seed.
func (c SearchConfig) Variants() []Variant {
	seeds := rng.New(c.Seed)
	vs := make([]Variant, 0, len(c.StartJList)*c.Tries)
	for _, startJ := range c.StartJList {
		for try := 0; try < c.Tries; try++ {
			vs = append(vs, Variant{
				Index:  len(vs),
				StartJ: startJ,
				Try:    try,
				Seed:   seeds.Uint64(),
			})
		}
	}
	return vs
}

// SearchWorkers resolves the SearchParallelism knob to a variant worker
// count: 0 and 1 mean one worker (the sequential BIG_LOOP), negative means
// runtime.GOMAXPROCS(0), any other value is used as-is, capped by the
// number of scheduled variants.
func (c SearchConfig) SearchWorkers() int {
	p := c.SearchParallelism
	if p < 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	if n := len(c.StartJList) * c.Tries; p > n && n > 0 {
		p = n
	}
	return p
}

// VariantRunner executes one scheduled variant: build a classification with
// v.StartJ classes, initialize it from v.Seed, and run EM to convergence.
// It receives the whole Variant, so a runner that reports per-try events or
// resumes a mid-try snapshot needs no lookup from (startJ, seed) back to the
// schedule.
type VariantRunner func(v Variant) (*Classification, EMResult, error)

// tryOutcome buffers one finished variant until its commit turn.
type tryOutcome struct {
	cls *Classification
	em  EMResult
	err error
}

// SearchScheduler coordinates a variant-parallel BIG_LOOP search: workers
// claim variants with next, execute them, and hand the outcomes to commit;
// the scheduler buffers out-of-order arrivals and folds them into the
// result strictly in schedule order. Claim order is the promise heuristic
// (smaller startJ first — cheaper tries that fill the duplicate table
// quickly — then earlier tries); commit order is the sequential schedule.
// With one worker both orders collapse to the sequential BIG_LOOP.
type SearchScheduler struct {
	cfg      SearchConfig
	variants []Variant
	workers  int
	order    []int // claim order: promise-sorted variant indexes
	claim    atomic.Int64

	mu        sync.Mutex
	res       *SearchResult
	bestScore float64
	pending   map[int]*tryOutcome
	nextIdx   int // next schedule index to commit
	err       error
	stopped   bool
	// onCommit, when set, runs after every in-order commit (under the
	// scheduler lock) — a resumable search persists its state here.
	onCommit func(*SearchResult) error
	// obs, when set, receives try lifecycle notifications: claims in
	// execution order, commit verdicts in schedule order (under the lock).
	obs SearchObserver
}

// SetObserver installs a search observer. Must be called before the first
// claim; pass nil to disable (the default — the disabled path costs one
// nil check and zero allocations).
func (s *SearchScheduler) SetObserver(o SearchObserver) {
	s.obs = o
}

// notifyTry forwards ev to the installed observer; the nil path is the
// zero-cost disabled path (held to 0 allocs by an AllocsPerRun guard).
func (s *SearchScheduler) notifyTry(ev TryEvent) {
	if s.obs == nil {
		return
	}
	s.obs.ObserveTry(ev)
}

// NewSearchScheduler validates the configuration and builds a scheduler
// for its variants. workers sizes Run's pool and selects the claim order:
// with workers <= 1 variants are claimed in schedule order (the sequential
// BIG_LOOP), with workers > 1 in promise order.
func NewSearchScheduler(cfg SearchConfig, workers int) (*SearchScheduler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &SearchScheduler{
		cfg:       cfg,
		variants:  cfg.Variants(),
		workers:   workers,
		res:       &SearchResult{},
		bestScore: math.Inf(-1),
		pending:   make(map[int]*tryOutcome),
	}
	s.order = make([]int, len(s.variants))
	for i := range s.order {
		s.order[i] = i
	}
	if workers > 1 {
		sort.SliceStable(s.order, func(a, b int) bool {
			va, vb := s.variants[s.order[a]], s.variants[s.order[b]]
			if va.StartJ != vb.StartJ {
				return va.StartJ < vb.StartJ
			}
			if va.Try != vb.Try {
				return va.Try < vb.Try
			}
			return va.Index < vb.Index
		})
	}
	return s, nil
}

// restore seeds the scheduler with the completed prefix of an interrupted
// search. Every recorded seed is checked against the derived chain — a
// state file whose seed chain has drifted from the configuration would
// silently corrupt the resumed search.
func (s *SearchScheduler) restore(completed []TryResult, best *Classification, bestTry TryResult, totals EMResult) error {
	if len(completed) > len(s.variants) {
		return fmt.Errorf("autoclass: state records %d completed tries, search schedules only %d",
			len(completed), len(s.variants))
	}
	for i, tr := range completed {
		if got, want := tr.Seed, s.variants[i].Seed; got != want {
			return fmt.Errorf("autoclass: try %d seed mismatch (state %d, derived %d)", i, got, want)
		}
	}
	s.res.Tries = append([]TryResult(nil), completed...)
	s.res.Totals = totals
	if best != nil {
		s.res.Best = best
		s.res.BestTry = bestTry
		s.bestScore = bestTry.Score
	}
	s.nextIdx = len(completed)
	kept := s.order[:0]
	for _, idx := range s.order {
		if idx >= s.nextIdx {
			kept = append(kept, idx)
		}
	}
	s.order = kept
	return nil
}

// next claims the next unclaimed variant. It returns false when every
// variant has been claimed or the search has stopped on an error.
func (s *SearchScheduler) next() (Variant, bool) {
	i := int(s.claim.Add(1)) - 1
	if i >= len(s.order) {
		return Variant{}, false
	}
	s.mu.Lock()
	stopped := s.stopped
	done := len(s.res.Tries)
	s.mu.Unlock()
	if stopped {
		return Variant{}, false
	}
	v := s.variants[s.order[i]]
	if s.obs != nil {
		s.notifyTry(TryEvent{
			Kind: TryClaimed, Index: v.Index, StartJ: v.StartJ, Try: v.Try,
			Seed: v.Seed, Done: done, Total: len(s.variants),
		})
	}
	return v, true
}

// commit hands a finished variant's outcome to the scheduler. Outcomes are
// buffered and applied strictly in schedule order; an error stops the
// search when its turn is reached, so the surfaced error is the same one
// the sequential BIG_LOOP would return.
func (s *SearchScheduler) commit(v Variant, cls *Classification, em EMResult, runErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.pending[v.Index] = &tryOutcome{cls: cls, em: em, err: runErr}
	for {
		o := s.pending[s.nextIdx]
		if o == nil {
			return
		}
		delete(s.pending, s.nextIdx)
		cv := s.variants[s.nextIdx]
		s.nextIdx++
		s.apply(cv, o)
		if s.stopped {
			s.pending = make(map[int]*tryOutcome)
			return
		}
	}
}

// apply folds one outcome into the result — the exact sequence of
// operations SearchWith's historical sequential loop performed, so the
// result is bitwise identical to the sequential oracle. Called with the
// lock held, in schedule order.
func (s *SearchScheduler) apply(v Variant, o *tryOutcome) {
	if o.err != nil {
		s.err = fmt.Errorf("autoclass: try J=%d #%d: %w", v.StartJ, v.Try, o.err)
		s.stopped = true
		return
	}
	tr := TryResult{
		StartJ:    v.StartJ,
		FinalJ:    o.cls.J(),
		Try:       v.Try,
		Seed:      v.Seed,
		Cycles:    o.em.Cycles,
		Converged: o.em.Converged,
		LogLik:    o.cls.LogLik,
		LogPost:   o.cls.LogPost,
		Score:     o.cls.Score(),
	}
	res := s.res
	res.Totals.Cycles += o.em.Cycles
	res.Totals.WtsSeconds += o.em.WtsSeconds
	res.Totals.ParamsSeconds += o.em.ParamsSeconds
	res.Totals.ApproxSeconds += o.em.ApproxSeconds
	res.Totals.InitSeconds += o.em.InitSeconds
	res.Totals.ReducedValues += o.em.ReducedValues
	res.Totals.Reductions += o.em.Reductions
	// Duplicate elimination (paper Fig. 2): a converged try that lands on
	// an already-seen (final J, score) point is the same local optimum
	// rediscovered.
	for _, prev := range res.Tries {
		if prev.Duplicate || prev.FinalJ != tr.FinalJ {
			continue
		}
		if stats.RelDiff(prev.Score, tr.Score) < s.cfg.DupScoreTol {
			tr.Duplicate = true
			break
		}
	}
	res.Tries = append(res.Tries, tr)
	if !tr.Duplicate && tr.Score > s.bestScore {
		s.bestScore = tr.Score
		res.Best = o.cls
		res.BestTry = tr
	}
	if s.obs != nil {
		kind := TryConverged
		if tr.Duplicate {
			kind = TryDuplicate
		}
		ev := TryEvent{
			Kind: kind, Index: v.Index, StartJ: v.StartJ, Try: v.Try,
			Seed: v.Seed, Cycles: tr.Cycles, J: tr.FinalJ,
			LogPost: tr.LogPost, Score: tr.Score, Converged: tr.Converged,
			Done: len(res.Tries), Total: len(s.variants),
			BestScore: s.bestScore,
		}
		if res.Best != nil {
			ev.BestJ = res.BestTry.FinalJ
		}
		s.notifyTry(ev)
	}
	if s.onCommit != nil {
		if err := s.onCommit(res); err != nil {
			s.err = err
			s.stopped = true
		}
	}
}

// result returns the folded result once every variant has committed,
// without the no-classification check (Run may still regenerate a lost best
// afterwards).
func (s *SearchScheduler) result() (*SearchResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	if s.nextIdx != len(s.variants) || len(s.pending) > 0 {
		return nil, errors.New("autoclass: scheduler result requested before all variants committed")
	}
	return s.res, nil
}

// Run is the BIG_LOOP driver behind every search entry point: each of the
// scheduler's worker slots gets its own VariantRunner from makeRunner and
// loops claim → execute → commit until the schedule drains. With one
// worker the loop runs inline on the calling goroutine — execution order,
// observer callback order and results are exactly the historical
// sequential BIG_LOOP's.
//
// A non-nil st makes the search resumable: its committed prefix is restored
// before the first claim, every commit is persisted to it, and a best
// classification the state recorded but lost is regenerated at the end.
func (s *SearchScheduler) Run(st *SearchState, makeRunner func(slot int) VariantRunner) (*SearchResult, error) {
	if st != nil {
		if err := s.restore(st.file.Completed, st.best, st.file.BestTry, st.file.Totals); err != nil {
			return nil, err
		}
		s.onCommit = st.commit
	}
	if s.workers <= 1 {
		s.drain(makeRunner(0))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < s.workers; w++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				s.drain(makeRunner(slot))
			}(w)
		}
		wg.Wait()
	}
	res, err := s.result()
	if err != nil {
		return nil, err
	}
	if st != nil {
		if err := st.regenerateBest(res, makeRunner(0)); err != nil {
			return nil, err
		}
	}
	if res.Best == nil {
		return nil, errors.New("autoclass: search produced no classification")
	}
	return res, nil
}

// drain is one worker's loop: claim, execute, commit, until no variant is
// left to claim.
func (s *SearchScheduler) drain(run VariantRunner) {
	for {
		v, ok := s.next()
		if !ok {
			return
		}
		cls, em, err := run(v)
		s.commit(v, cls, em, err)
	}
}

// lockedCycleObserver serializes ObserveCycle calls when one observer is
// shared by several variant workers. Observers are written for the
// single-goroutine engine loop; the wrapper keeps that contract without
// burdening the common sequential path.
type lockedCycleObserver struct {
	mu sync.Mutex
	o  CycleObserver
}

func (l *lockedCycleObserver) ObserveCycle(info CycleInfo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.o.ObserveCycle(info)
}
