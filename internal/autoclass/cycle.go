package autoclass

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Reducer is the hook through which the parallel engine turns local
// reductions into global ones. ReduceInPlace must replace buf with the
// elementwise sum over all ranks (and is called at identical points with
// identical lengths on every rank). The sequential engine passes a nil
// Reducer and the local values are already global.
type Reducer interface {
	ReduceInPlace(buf []float64) error
}

// Charger receives the engine's abstract op-unit charges; *simnet.Clock
// implements it. A nil Charger disables accounting.
type Charger interface {
	ChargeOps(units float64)
}

// Granularity selects how update_parameters exchanges statistics in the
// parallel engine.
type Granularity int

const (
	// PerTerm performs one reduction per (class, term) pair — the
	// structure of the paper's Fig. 5, where the Allreduce sits inside the
	// class × attribute loops.
	PerTerm Granularity = iota
	// Packed accumulates every class's statistics into one buffer and
	// performs a single reduction per cycle — the obvious message-
	// aggregation optimization, benchmarked as an ablation.
	Packed
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case PerTerm:
		return "per-term"
	case Packed:
		return "packed"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// Config controls the parameter-level (EM) search.
type Config struct {
	// MaxCycles caps base_cycle iterations per try.
	MaxCycles int
	// RelDelta is the relative log-posterior change below which a cycle
	// counts toward convergence.
	RelDelta float64
	// ConvergeWindow is how many consecutive below-RelDelta cycles
	// constitute convergence.
	ConvergeWindow int
	// MinClassWeight prunes classes whose global W falls below it.
	MinClassWeight float64
	// PruneClasses enables class death (AutoClass reduces J when a class
	// loses its support).
	PruneClasses bool
	// Granularity selects the statistics-exchange pattern (parallel only).
	Granularity Granularity
	// Parallelism is the intra-rank worker count of every pass over the
	// data (the fused E+M pass of a cycle and the crisp initialization):
	//
	//	0, 1 — one worker (0 is the default);
	//	  >1 — that many worker goroutines;
	//	  <0 — runtime.GOMAXPROCS(0) workers.
	//
	// Every pass folds fixed-size row shards and merges them in ascending
	// shard order, so its results are bitwise identical for every value —
	// changing the worker count never changes the search trajectory. See
	// parallel.go for the determinism invariant.
	Parallelism int
	// SyncEvery is the bounded-staleness schedule of the parallel engine:
	// each rank runs up to SyncEvery local EM cycles on stale global
	// parameters, folding its local sufficient-statistic deltas back into
	// the global model at the next synchronization. 0 or 1 (the default)
	// is the paper's fully synchronous path — one global exchange per
	// cycle, bitwise identical to the seed engine. Values > 1 only take
	// effect on the parallel (Full-strategy) engine; the sequential engine
	// and the WtsOnly baseline ignore it. See staleness.go.
	SyncEvery int
	// SyncDriftTol bounds the staleness when SyncEvery > 1: a stale cycle
	// whose corrected local log-likelihood drifts from the last synced
	// value by more than this relative tolerance forces an early global
	// synchronization on every rank. <= 0 disables the bound (the schedule
	// alone decides). Ignored when SyncEvery <= 1.
	SyncDriftTol float64
}

// EffectiveSyncEvery normalizes the staleness schedule: 0 and 1 both mean
// the synchronous path.
func (c Config) EffectiveSyncEvery() int {
	if c.SyncEvery < 1 {
		return 1
	}
	return c.SyncEvery
}

// DefaultConfig returns the engine defaults.
func DefaultConfig() Config {
	return Config{
		MaxCycles:      200,
		RelDelta:       1e-5,
		ConvergeWindow: 3,
		MinClassWeight: 1.0,
		PruneClasses:   true,
		Granularity:    PerTerm,
		SyncEvery:      1,
		SyncDriftTol:   0.05,
	}
}

func (c Config) validate() error {
	if c.MaxCycles < 1 {
		return errors.New("autoclass: MaxCycles < 1")
	}
	if c.RelDelta < 0 {
		return errors.New("autoclass: negative RelDelta")
	}
	if c.ConvergeWindow < 1 {
		return errors.New("autoclass: ConvergeWindow < 1")
	}
	if c.SyncEvery < 0 {
		return errors.New("autoclass: negative SyncEvery")
	}
	return nil
}

// CycleStats reports one base_cycle's phase timings (wall clock) and the
// values exchanged through the Reducer.
type CycleStats struct {
	// WtsSeconds, ParamsSeconds and ApproxSeconds are the wall-clock
	// durations of the three phases. The engine runs the E-step and the
	// statistics accumulation as one fused pass over the data (lowmem.go),
	// so WtsSeconds covers that whole pass plus the weights reduction, and
	// ParamsSeconds only the statistics exchange and the term updates. The
	// WtsOnly baseline in package pautoclass keeps the paper's two-pass
	// split, with the accumulation pass in ParamsSeconds.
	WtsSeconds, ParamsSeconds, ApproxSeconds float64
	// ReducedValues counts float64s passed through the Reducer.
	ReducedValues int
	// Reductions counts Reducer invocations.
	Reductions int
	// LogPost is the posterior after the cycle.
	LogPost float64
	// Synced reports whether the cycle ended at a global synchronization
	// point. Always true on the synchronous path (SyncEvery <= 1, or any
	// engine without a Reducer); false on the stale local cycles of a
	// bounded-staleness run.
	Synced bool
	// SinceSync counts local cycles since the last synchronization point
	// (0 at a sync point). Always 0 on the synchronous path.
	SinceSync int
	// Drift is the relative log-likelihood drift of this rank's corrected
	// local model against the last synced global value — the quantity the
	// SyncDriftTol bound thresholds. 0 on synchronized cycles.
	Drift float64
}

// CycleInfo is the per-cycle record handed to a CycleObserver: one
// base_cycle's position in the run, outcome, and phase statistics.
type CycleInfo struct {
	// Cycle is the 0-based cycle index within the current try.
	Cycle int
	// J is the class count after this cycle's pruning.
	J int
	// LogPost is the log posterior after the cycle.
	LogPost float64
	// Delta is the relative log-posterior change versus the previous
	// cycle — the quantity the convergence test thresholds.
	Delta float64
	// Stats carries the cycle's phase timings and reduction traffic.
	Stats CycleStats
}

// CycleObserver receives every completed base_cycle's CycleInfo — the hook
// through which the observability layer records per-cycle engine metrics.
// Observation must not perform communication or mutate engine state; the
// SPMD invariant requires identical trajectories with and without an
// observer installed.
type CycleObserver interface {
	ObserveCycle(info CycleInfo)
}

// EMResult summarizes a full parameter-level search (one try).
type EMResult struct {
	// Cycles executed, and whether the run Converged before MaxCycles.
	Cycles    int
	Converged bool
	// Totals of the per-cycle phase timings.
	WtsSeconds, ParamsSeconds, ApproxSeconds float64
	// InitSeconds is the time spent in initialization.
	InitSeconds float64
	// ReducedValues and Reductions total the Reducer traffic.
	ReducedValues int
	Reductions    int
	// History holds the log posterior after every cycle.
	History []float64
}

// TotalSeconds returns the summed wall-clock time of all phases.
func (r *EMResult) TotalSeconds() float64 {
	return r.WtsSeconds + r.ParamsSeconds + r.ApproxSeconds + r.InitSeconds
}

// Engine runs base_cycle iterations of one classification over one view of
// the data. The sequential engine uses a view covering the whole dataset
// and a nil Reducer; each parallel rank uses its partition's view and an
// Allreduce-backed Reducer.
type Engine struct {
	view    *dataset.View
	cls     *Classification
	cfg     Config
	reducer Reducer
	charger Charger

	belowTol    int // consecutive cycles below RelDelta
	lastPost    float64
	started     bool
	initSeconds float64
	// Reducer traffic of the try so far (EngineState).
	reductions, reducedValues int

	// Optional observability hooks; both nil-safe and off the per-row hot
	// path (consulted once per cycle, never inside the row loops).
	profile  *trace.Profile
	cycleObs CycleObserver
	// cycleHook, unlike cycleObs, may perform communication (it carries the
	// distributed checkpoint protocol) and may abort the run.
	cycleHook CycleHook

	scratch shardScratch // per-shard accumulators, reused across cycles
	passAcc []float64    // merged {w_j, logLik | statistics}, reused
	offs    []int        // (class, term) statistics offsets, reused

	// Bounded-staleness state (see staleness.go): the global model at the
	// last synchronization point — class weights plus log-likelihood
	// ({W_0…W_{J−1}, logLik}, identical on every rank) and the packed
	// global sufficient statistics — plus the local-cycle counter and
	// scratch. syncStats == nil marks the pre-bootstrap state: the first
	// cycle of a stale run synchronizes unconditionally to establish the
	// baseline.
	syncWts   []float64
	syncStats []float64
	sinceSync int
	staleBuf  []float64  // delta / working-model scratch, reused
	pollBuf   [1]float64 // drift-bound agreement flag

	// Blocked-kernel state (see kernels.go): the (class, term) kernel set,
	// per-worker scratch, and the view's chunk plane, which every pass
	// (lowmem.go) walks through per-worker cursors — the dataset's own
	// chunk store, or for a materialized view an in-memory store over the
	// view's column mirror.
	kerns    kernelSet
	blockScr []*blockScratch
	src      dataset.ChunkSrc
	// passLoop is the fused pass's shard-loop body, built once so that a
	// steady-state pass allocates no closure; it reads the shard buffers,
	// offsets and worker scratch the pass sets up.
	passLoop func(worker, shard int)
}

// NewEngine validates inputs and builds an engine.
func NewEngine(view *dataset.View, cls *Classification, cfg Config, red Reducer, ch Charger) (*Engine, error) {
	if view == nil || cls == nil {
		return nil, errors.New("autoclass: nil view or classification")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src, err := view.ChunkSrc()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		view:     view,
		cls:      cls,
		cfg:      cfg,
		reducer:  red,
		charger:  ch,
		lastPost: math.Inf(-1),
		src:      src,
	}
	e.passLoop = func(worker, s int) {
		lo, hi := RowShardRange(s, e.view.N())
		e.passRows(lo, hi, e.scratch.bufs[s], e.offs, e.blockScr[worker])
	}
	return e, nil
}

// Classification returns the engine's (mutated in place) classification.
func (e *Engine) Classification() *Classification { return e.cls }

// SetProfile installs a trace.Profile that accumulates the §3.1 phase
// timings (update_wts / update_parameters / update_approximations /
// initialization) across cycles and tries. Nil disables profiling.
func (e *Engine) SetProfile(p *trace.Profile) { e.profile = p }

// SetCycleObserver installs a CycleObserver notified after every completed
// base_cycle. Nil disables observation.
func (e *Engine) SetCycleObserver(o CycleObserver) { e.cycleObs = o }

// CycleHook runs at the end of every completed cycle of Run/RunFrom, after
// the convergence tracker has been updated — exactly the boundary State()
// snapshots. Unlike a CycleObserver it may perform communication (the
// distributed checkpoint protocol lives here) and a non-nil error aborts
// the run. The hook must not mutate classification state: the SPMD
// invariant requires identical trajectories with and without it installed.
type CycleHook func(cycle int, converged bool) error

// SetCycleHook installs the per-cycle hook. Nil disables it.
func (e *Engine) SetCycleHook(h CycleHook) { e.cycleHook = h }

// EngineState is the cycle-boundary snapshot of the engine's mutable search
// state beyond the Classification itself: together with the classification
// (parameters, weights, posterior) it is sufficient to continue the run —
// the per-item weights are recomputed from the parameters in the next
// BaseCycle, so they never need to be persisted.
type EngineState struct {
	// Cycles is the classification's total cycle count at the snapshot.
	Cycles int
	// BelowTol is the convergence tracker: consecutive cycles whose
	// relative posterior change stayed below RelDelta.
	BelowTol int
	// LastPost is the posterior the next cycle's delta is measured against.
	LastPost float64
	// SyncStats is the packed global sufficient statistics at the last
	// synchronization point of a bounded-staleness run (SyncEvery > 1).
	// Checkpoints are only taken at sync points, where this baseline —
	// together with the classification's W/LogLik — fully determines the
	// continuation. Nil on the synchronous path.
	SyncStats []float64
	// Reductions and ReducedValues count the try's Reducer traffic so far,
	// so a snapshot carries the counts an interrupted try has accumulated.
	Reductions, ReducedValues int
}

// State snapshots the engine at a cycle boundary (call it from a CycleHook
// or between BaseCycle calls).
func (e *Engine) State() EngineState {
	st := EngineState{
		Cycles: e.cls.Cycles, BelowTol: e.belowTol, LastPost: e.lastPost,
		Reductions: e.reductions, ReducedValues: e.reducedValues,
	}
	if e.staleActive() && e.syncStats != nil {
		st.SyncStats = append([]float64(nil), e.syncStats...)
	}
	return st
}

// Restore rehydrates a freshly built engine from a cycle-boundary snapshot
// whose classification was restored alongside it. The engine is marked
// started — InitRandom must not be called — and RunFrom then continues the
// trajectory bitwise-identically to a run that was never interrupted.
func (e *Engine) Restore(st EngineState) {
	e.belowTol = st.BelowTol
	e.lastPost = st.LastPost
	e.reductions, e.reducedValues = st.Reductions, st.ReducedValues
	e.started = true
	e.initSeconds = 0
	if e.staleActive() && st.SyncStats != nil {
		// Snapshots land on sync points, so the classification's class
		// weights and log-likelihood ARE the synced global baseline.
		e.syncStats = append([]float64(nil), st.SyncStats...)
		e.syncWts = make([]float64, e.cls.J()+1)
		for cj, cl := range e.cls.Classes {
			e.syncWts[cj] = cl.W
		}
		e.syncWts[e.cls.J()] = e.cls.LogLik
		e.sinceSync = 0
	}
}

func (e *Engine) charge(units float64) {
	if e.charger != nil {
		e.charger.ChargeOps(units)
	}
}

func (e *Engine) reduce(buf []float64) (int, error) {
	if e.reducer == nil {
		return 0, nil
	}
	if err := e.reducer.ReduceInPlace(buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// exchangeStats reduces the accumulated statistics globally and
// re-estimates every term — the exchange half of update_parameters,
// shared by the synchronous cycle and the initialization. With PerTerm
// granularity the reduction happens inside the class × block loops
// exactly as in the paper's Fig. 5; with Packed granularity all statistics
// travel in one reduction.
func (e *Engine) exchangeStats(buf []float64, offs []int) (reducedValues, reductions int, err error) {
	switch g := e.cfg.Granularity; g {
	case PerTerm:
		ti := 0
		for cj, cl := range e.cls.Classes {
			for bi, term := range cl.Terms {
				st := buf[offs[ti]:offs[ti+1]]
				ti++
				v, err := e.reduce(st)
				if err != nil {
					return reducedValues, reductions, fmt.Errorf("autoclass: reduce class %d block %d: %w", cj, bi, err)
				}
				if v > 0 {
					reducedValues += v
					reductions++
				}
				term.Update(st)
			}
		}
	case Packed:
		v, err := e.reduce(buf)
		if err != nil {
			return reducedValues, reductions, fmt.Errorf("autoclass: packed reduce: %w", err)
		}
		if v > 0 {
			reducedValues += v
			reductions++
		}
		ti := 0
		for _, cl := range e.cls.Classes {
			for _, term := range cl.Terms {
				term.Update(buf[offs[ti]:offs[ti+1]])
				ti++
			}
		}
	default:
		return 0, 0, fmt.Errorf("autoclass: unknown granularity %d", int(g))
	}
	return reducedValues, reductions, nil
}

// statOffsets rebuilds the (class, term) statistics offset table of cls
// in offs (class pruning can shrink it), allocating only when it grows,
// and returns it with the total statistics length.
func statOffsets(cls *Classification, offs []int) ([]int, int) {
	offs = offs[:0]
	total := 0
	for _, cl := range cls.Classes {
		for _, term := range cl.Terms {
			offs = append(offs, total)
			total += term.StatsSize()
		}
	}
	return append(offs, total), total
}

// updateApproximations refreshes the cached posterior quantities — the
// cheap third phase whose cost the paper found negligible (§3.1) — and
// charges it to ch (nil disables accounting).
func updateApproximations(cls *Classification, ch Charger) {
	cls.UpdateClassWeightsFromW()
	cls.RefreshPosterior()
	if ch != nil {
		ch.ChargeOps(float64(cls.J()) * float64(cls.NumAttrColumns()+4))
	}
}

// pruneDeadClasses removes classes whose global weight fell below
// cfg.MinClassWeight. The decision uses globally reduced W values, so every
// rank prunes identically. It returns the kept class indices when classes
// were removed and nil when nothing changed, so the bounded-staleness path
// can compact its sync baselines with the same mapping.
func pruneDeadClasses(cls *Classification, cfg Config) []int {
	if !cfg.PruneClasses || cls.J() <= 1 {
		return nil
	}
	j := cls.J()
	keep := make([]int, 0, j)
	for cj, cl := range cls.Classes {
		if cl.W >= cfg.MinClassWeight {
			keep = append(keep, cj)
		}
	}
	if len(keep) == j {
		return nil
	}
	if len(keep) == 0 {
		// Keep the heaviest class rather than dying completely.
		best := 0
		for cj, cl := range cls.Classes {
			if cl.W > cls.Classes[best].W {
				best = cj
			}
		}
		keep = []int{best}
	}
	// Weights are recomputed from the parameters every cycle, so there is
	// no weights matrix to compact.
	newClasses := make([]*Class, len(keep))
	for ni, cj := range keep {
		newClasses[ni] = cls.Classes[cj]
	}
	cls.Classes = newClasses
	cls.UpdateClassWeightsFromW()
	return keep
}

// BaseCycle runs one iteration of the three-phase cycle and reports its
// statistics. InitRandom must have been called first. With a bounded-
// staleness schedule active (SyncEvery > 1 on a parallel engine) the cycle
// dispatches to the stale path in staleness.go; otherwise this is the
// paper's fully synchronous cycle.
func (e *Engine) BaseCycle() (CycleStats, error) {
	var cs CycleStats
	if !e.started {
		return cs, errors.New("autoclass: BaseCycle before InitRandom")
	}
	if e.staleActive() {
		return e.staleCycle()
	}
	cs.Synced = true
	t0 := time.Now()
	combined, offs := e.localPass()
	j := e.cls.J()
	wtsOut := combined[:j+1]
	v, err := e.reduce(wtsOut)
	if err != nil {
		return cs, fmt.Errorf("autoclass: reduce wts: %w", err)
	}
	if v > 0 {
		cs.ReducedValues += v
		cs.Reductions++
	}
	for cj, cl := range e.cls.Classes {
		cl.W = wtsOut[cj]
	}
	e.cls.LogLik = wtsOut[j]
	cs.WtsSeconds = time.Since(t0).Seconds()

	t1 := time.Now()
	rv, rn, err := e.exchangeStats(combined[j+1:], offs)
	if err != nil {
		return cs, err
	}
	cs.ReducedValues += rv
	cs.Reductions += rn
	e.charge(float64(e.view.N()) * float64(j) * float64(e.cls.NumAttrColumns()))
	cs.ParamsSeconds = time.Since(t1).Seconds()

	t2 := time.Now()
	updateApproximations(e.cls, e.charger)
	cs.ApproxSeconds = time.Since(t2).Seconds()

	pruneDeadClasses(e.cls, e.cfg)
	e.cls.Cycles++
	cs.LogPost = e.cls.LogPost
	return cs, nil
}

// converged updates the convergence tracker with the latest posterior.
func (e *Engine) convergedAfter(post float64) bool {
	if stats.RelDiff(post, e.lastPost) < e.cfg.RelDelta {
		e.belowTol++
	} else {
		e.belowTol = 0
	}
	e.lastPost = post
	return e.belowTol >= e.cfg.ConvergeWindow
}

// observeCycle feeds the optional profile and cycle observer. It runs once
// per cycle, outside the phase timers, and is a no-op when both hooks are
// nil — the disabled path costs two nil checks and no allocations.
// CycleDelta is the relative log-posterior change reported to cycle
// observers: stats.RelDiff against the previous cycle, except on the first
// cycle — measured against the -Inf starting posterior RelDiff is NaN, so
// the infinite improvement is reported as +Inf.
func CycleDelta(post, last float64) float64 {
	if math.IsInf(last, -1) {
		return math.Inf(1)
	}
	return stats.RelDiff(post, last)
}

func (e *Engine) observeCycle(cycle int, cs CycleStats, delta float64) {
	if e.profile != nil {
		e.profile.Add(PhaseWts, cs.WtsSeconds)
		e.profile.Add(PhaseParams, cs.ParamsSeconds)
		e.profile.Add(PhaseApprox, cs.ApproxSeconds)
	}
	if e.cycleObs != nil {
		e.cycleObs.ObserveCycle(CycleInfo{
			Cycle:   cycle,
			J:       e.cls.J(),
			LogPost: cs.LogPost,
			Delta:   delta,
			Stats:   cs,
		})
	}
}

// Phase names used by the engine's trace.Profile instrumentation — shared
// with the TPROF harness so every §3.1-style table uses the same labels.
const (
	PhaseWts    = "update_wts"
	PhaseParams = "update_parameters"
	PhaseApprox = "update_approximations"
	PhaseInit   = "initialization"
)

// Run executes base_cycle until convergence or the cycle cap — AutoClass's
// "new classification try" (paper Fig. 2). InitRandom must have been
// called.
func (e *Engine) Run() (EMResult, error) {
	return e.RunFrom(0)
}

// RunFrom is Run starting at cycle index `from` — the resume entry point
// after Restore. The index only offsets the cycle numbers reported to
// observers and the hook (and the remaining-cycle budget); the numerics are
// entirely determined by the restored classification and engine state.
func (e *Engine) RunFrom(from int) (EMResult, error) {
	var res EMResult
	if !e.started {
		return res, errors.New("autoclass: Run before InitRandom")
	}
	res.InitSeconds = e.initSeconds
	if e.profile != nil {
		e.profile.Add(PhaseInit, e.initSeconds)
	}
	for cycle := from; cycle < e.cfg.MaxCycles; cycle++ {
		cs, err := e.BaseCycle()
		if err != nil {
			return res, err
		}
		res.Cycles++
		res.WtsSeconds += cs.WtsSeconds
		res.ParamsSeconds += cs.ParamsSeconds
		res.ApproxSeconds += cs.ApproxSeconds
		res.ReducedValues += cs.ReducedValues
		res.Reductions += cs.Reductions
		e.reducedValues += cs.ReducedValues
		e.reductions += cs.Reductions
		res.History = append(res.History, cs.LogPost)
		delta := CycleDelta(cs.LogPost, e.lastPost)
		// The convergence tracker advances only at synchronization points:
		// stale-cycle posteriors mix this rank's fresh contribution with the
		// other ranks' stale shares, so thresholding them would make each
		// rank's convergence decision partition-dependent. Synced is always
		// true on the synchronous path. The cycle hook (checkpoint protocol)
		// is likewise confined to sync points, where the group state is
		// consistent and snapshots stay exact.
		converged := false
		if cs.Synced {
			converged = e.convergedAfter(cs.LogPost)
		}
		e.observeCycle(cycle, cs, delta)
		if e.cycleHook != nil && cs.Synced {
			if err := e.cycleHook(cycle, converged); err != nil {
				return res, err
			}
		}
		if converged {
			res.Converged = true
			break
		}
	}
	e.cls.Converged = res.Converged
	return res, nil
}
