package autoclass

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Reducer is the hook through which the parallel engine turns local
// reductions into global ones. ReduceInPlace must replace buf with the
// elementwise sum over all ranks (and is called at identical points with
// identical lengths on every rank). The engine makes one call per exchange
// with the whole pass buffer: {w_j, logL | statistics} in a cycle and
// {n_j | statistics} at initialization. The sequential engine passes a nil
// Reducer and the local values are already global.
type Reducer interface {
	ReduceInPlace(buf []float64) error
}

// MessageReducer is a Reducer that is also told how the paper's program
// splits an exchange into messages. The paper's Figs. 4 and 5 send the
// class-weight segment first and then one message per (class, term)
// statistics segment. The engine calls ReduceMessages instead of
// ReduceInPlace, with lens the lengths of those messages in buffer order
// (they sum to len(buf)); buf still travels in one reduction. The Allreduce
// reducer of package pautoclass implements it so that a virtual clock
// charges the paper's messages.
type MessageReducer interface {
	Reducer
	ReduceMessages(buf []float64, lens []int) error
}

// Charger receives the engine's abstract op-unit charges; *simnet.Clock
// implements it. A nil Charger disables accounting.
type Charger interface {
	ChargeOps(units float64)
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
}

// DefaultConfig returns the engine defaults.
func DefaultConfig() Config {
	return Config{
		MaxCycles:      200,
		RelDelta:       1e-5,
		ConvergeWindow: 3,
		MinClassWeight: 1.0,
		PruneClasses:   true,
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
	return nil
}

// CycleStats reports one base_cycle's phase timings (wall clock) and the
// values exchanged through the Reducer.
type CycleStats struct {
	// WtsSeconds, ParamsSeconds and ApproxSeconds are the wall-clock
	// durations of the three phases. The engine runs the E-step and the
	// statistics accumulation as one fused pass over the data (lowmem.go),
	// so WtsSeconds covers that whole pass, and ParamsSeconds the one
	// exchange of {w_j, logL | statistics}, the wait for the slowest rank
	// included, and the term updates. The WtsOnly baseline in package
	// pautoclass keeps the paper's two-pass split, with the accumulation
	// pass in ParamsSeconds.
	WtsSeconds, ParamsSeconds, ApproxSeconds float64
	// ReducedValues counts float64s passed through the Reducer.
	ReducedValues int
	// Reductions counts Reducer invocations: one per cycle with a Reducer.
	Reductions int
	// LogPost is the posterior after the cycle.
	LogPost float64
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
	msgs    MessageReducer // reducer, when it is told the message lengths
	charger Charger

	belowTol    int // consecutive cycles below RelDelta
	lastPost    float64
	started     bool
	initSeconds float64
	// Reducer traffic of the try so far (EngineState).
	reductions, reducedValues int

	// Optional per-cycle hooks, off the per-row hot path (consulted once
	// per cycle, never inside the row loops). cycleObs only observes;
	// cycleHook may perform communication (it carries the distributed
	// checkpoint protocol) and may abort the run.
	cycleObs  CycleObserver
	cycleHook CycleHook

	scratch shardScratch // per-shard accumulators, reused across cycles
	passAcc []float64    // merged {w_j, logLik | statistics}, reused
	offs    []int        // (class, term) statistics offsets, reused
	lens    []int        // an exchange's message lengths, reused

	// Blocked-kernel state (see kernels.go): the (class, term) kernel set,
	// per-worker scratch, and the view's chunk plane, which every pass
	// (lowmem.go) walks through per-worker cursors — the dataset's own
	// chunk store, or for an in-memory dataset a store of windows of its
	// columns.
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
	e.msgs, _ = red.(MessageReducer)
	e.passLoop = func(worker, s int) {
		lo, hi := RowShardRange(s, e.view.N())
		e.passRows(lo, hi, e.scratch.bufs[s], e.offs, e.blockScr[worker])
	}
	return e, nil
}

// Classification returns the engine's (mutated in place) classification.
func (e *Engine) Classification() *Classification { return e.cls }

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
	// Reductions and ReducedValues count the try's Reducer traffic so far,
	// so a snapshot carries the counts an interrupted try has accumulated.
	Reductions, ReducedValues int
}

// State snapshots the engine at a cycle boundary (call it from a CycleHook
// or between BaseCycle calls).
func (e *Engine) State() EngineState {
	return EngineState{
		Cycles: e.cls.Cycles, BelowTol: e.belowTol, LastPost: e.lastPost,
		Reductions: e.reductions, ReducedValues: e.reducedValues,
	}
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
}

func (e *Engine) charge(units float64) {
	if e.charger != nil {
		e.charger.ChargeOps(units)
	}
}

// exchange reduces the pass buffer buf = {head segment | statistics}
// across the ranks in one reduction and returns the values reduced (0
// without a Reducer). The head segment is {w_j, logL} in a cycle and {n_j}
// at initialization; offs are the (class, term) statistics offsets. A
// MessageReducer is also told the lengths of the paper's messages: the
// head, then one per (class, term).
func (e *Engine) exchange(buf []float64, head int, offs []int) (int, error) {
	switch {
	case e.reducer == nil:
		return 0, nil
	case e.msgs != nil:
		e.lens = append(e.lens[:0], head)
		for ti := 1; ti < len(offs); ti++ {
			e.lens = append(e.lens, offs[ti]-offs[ti-1])
		}
		if err := e.msgs.ReduceMessages(buf, e.lens); err != nil {
			return 0, err
		}
	default:
		if err := e.reducer.ReduceInPlace(buf); err != nil {
			return 0, err
		}
	}
	return len(buf), nil
}

// updateTerms re-estimates every term from its segment of the reduced
// statistics at the offsets offs — the local half of update_parameters,
// shared by the cycle and the initialization.
func (e *Engine) updateTerms(stats []float64, offs []int) {
	ti := 0
	for _, cl := range e.cls.Classes {
		for _, term := range cl.Terms {
			term.Update(stats[offs[ti]:offs[ti+1]])
			ti++
		}
	}
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
// rank prunes identically.
func pruneDeadClasses(cls *Classification, cfg Config) {
	if !cfg.PruneClasses || cls.J() <= 1 {
		return
	}
	j := cls.J()
	keep := make([]int, 0, j)
	for cj, cl := range cls.Classes {
		if cl.W >= cfg.MinClassWeight {
			keep = append(keep, cj)
		}
	}
	if len(keep) == j {
		return
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
}

// BaseCycle runs one iteration of the paper's synchronous three-phase
// cycle and reports its statistics: every rank ends it holding the same
// globally reduced weights and parameters. InitRandom must have been
// called first.
func (e *Engine) BaseCycle() (CycleStats, error) {
	var cs CycleStats
	if !e.started {
		return cs, errors.New("autoclass: BaseCycle before InitRandom")
	}
	t0 := time.Now()
	combined, offs := e.localPass()
	cs.WtsSeconds = time.Since(t0).Seconds()

	t1 := time.Now()
	j := e.cls.J()
	v, err := e.exchange(combined, j+1, offs)
	if err != nil {
		return cs, fmt.Errorf("autoclass: reduce: %w", err)
	}
	if v > 0 {
		cs.ReducedValues, cs.Reductions = v, 1
	}
	for cj, cl := range e.cls.Classes {
		cl.W = combined[cj]
	}
	e.cls.LogLik = combined[j]
	e.updateTerms(combined[j+1:], offs)
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

// observeCycle feeds the optional cycle observer. It runs once per cycle,
// outside the phase timers, and is a no-op when no observer is installed —
// the disabled path costs one nil check and no allocations.
func (e *Engine) observeCycle(cycle int, cs CycleStats, delta float64) {
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

// Phase names: the rows of PhaseTable, the §3.1 profile that the CLI's
// -phase-profile and the TPROF experiment print.
const (
	PhaseWts    = "update_wts"
	PhaseParams = "update_parameters"
	PhaseApprox = "update_approximations"
	PhaseInit   = "initialization"
)

// PhaseTable renders r's phase seconds as the §3.1 profile table: one row
// per phase with its share of their sum and its call count — r.Cycles for
// the three base_cycle phases, tries for initialization. For a search r is
// SearchResult.Totals and tries is len(SearchResult.Tries).
func (r *EMResult) PhaseTable(tries int) string {
	total := r.TotalSeconds()
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %8s %10s\n", "phase", "seconds", "share", "calls")
	for _, row := range []struct {
		name    string
		seconds float64
		calls   int
	}{
		{PhaseWts, r.WtsSeconds, r.Cycles},
		{PhaseParams, r.ParamsSeconds, r.Cycles},
		{PhaseApprox, r.ApproxSeconds, r.Cycles},
		{PhaseInit, r.InitSeconds, tries},
	} {
		share := 0.0
		if total > 0 {
			share = 100 * row.seconds / total
		}
		fmt.Fprintf(&b, "%-28s %12.6f %7.2f%% %10d\n", row.name, row.seconds, share, row.calls)
	}
	fmt.Fprintf(&b, "%-28s %12.6f %7.2f%%\n", "total", total, 100.0)
	return b.String()
}

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
		converged := e.convergedAfter(cs.LogPost)
		e.observeCycle(cycle, cs, delta)
		if e.cycleHook != nil {
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
