// Package pautoclass implements P-AutoClass, the paper's contribution: an
// SPMD parallelization of the AutoClass Bayesian clustering engine for
// shared-nothing MIMD machines (paper §3).
//
// The dataset is block-partitioned across the ranks of an mpi group; every
// rank runs the identical BIG_LOOP and base_cycle code over its local
// partition, and the only communication is the total exchange of
// intermediate results:
//
//   - update_wts: the per-class weight sums w_j plus the data
//     log-likelihood (paper Fig. 4);
//   - update_parameters: each term's weighted sufficient statistics, which
//     the paper's Fig. 5 reduces once per (class, term) pair inside the
//     class × attribute loops.
//
// Both travel in one Allreduce per cycle, {w_j, logL | statistics}: every
// value sums as it would in the paper's separate messages. A virtual
// clock still charges the paper's messages, so the modeled figures
// describe the paper's program on the paper's machine.
//
// Because every rank sees the identical reduced values, the replicated
// search drivers make identical decisions (class pruning, duplicate
// elimination, best-classification selection) and need no further
// coordination — the property the paper's SPMD design relies on.
//
// The package also implements the update_wts-only parallelization of
// Miller & Guo [7] as a baseline (Strategy WtsOnly), which the paper's §5
// compares against.
package pautoclass

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Strategy selects the parallelization approach.
type Strategy int

const (
	// Full is P-AutoClass: both update_wts and update_parameters run in
	// parallel over the partitioned data.
	Full Strategy = iota
	// WtsOnly parallelizes only update_wts; the weight matrix is gathered
	// to rank 0, which recomputes the parameters over the whole dataset
	// and broadcasts them back — the prior MIMD prototype of [7].
	WtsOnly
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Full:
		return "p-autoclass"
	case WtsOnly:
		return "wts-only"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures a parallel run on one rank.
type Options struct {
	// EM configures the parameter-level search, including the intra-rank
	// Parallelism, which flows unchanged into every rank's engine. The
	// Full engine evaluates terms with the blocked kernels, the WtsOnly
	// baseline row by row (see wtsonly.go). Search replaces it with its
	// SearchConfig's EM, the configuration the state file's fingerprint
	// records.
	EM autoclass.Config
	// Strategy selects Full (P-AutoClass) or WtsOnly (baseline).
	Strategy Strategy
	// Clock, when non-nil, charges computation and communication to a
	// virtual machine model and keeps the group's clocks synchronized at
	// every collective. Each rank owns its own Clock over the same
	// Machine.
	Clock *simnet.Clock
	// Obs, when non-nil, records this rank's metrics and trace events. It
	// is installed as the communicator's collective observer and, when a
	// Clock is present, as the clock observer, and receives a per-cycle
	// engine callback. Observation never communicates, so trajectories are
	// bitwise identical with or without it.
	Obs *obs.Rank
	// SearchObs, when non-nil, receives try lifecycle events from the
	// replicated BIG_LOOP (Search). Every rank runs the identical search
	// loop, so events are emitted on rank 0 only — the same Options value
	// may be handed to every rank. Like Obs, it is notification-only and
	// never perturbs the trajectory.
	SearchObs autoclass.SearchObserver
	// Checkpoint, when its Path is set, makes Search resumable (see
	// Checkpoint). Only the Full strategy supports it.
	Checkpoint Checkpoint
}

// install wires the rank's observer into the communicator, the virtual
// clock, and (via engine setters in trial.run) the EM engines. It is
// idempotent, so Search and newTrial may both call it.
func (o *Options) install(comm *mpi.Comm) {
	if o.Obs == nil {
		return
	}
	comm.SetObserver(o.Obs)
	if o.Clock != nil {
		o.Obs.BindClock(o.Clock)
	}
}

// DefaultOptions returns Full-strategy options with engine defaults.
func DefaultOptions() Options {
	return Options{EM: autoclass.DefaultConfig(), Strategy: Full}
}

// partition returns the row blocks of p ranks. Chunk-backed datasets
// partition on the ChunkAlign grid so every rank's view starts on a
// kernel-block boundary and the blocked kernels stay chunk-contained;
// alignment uses ChunkAlign — not the chunk size — so the partition is
// identical for every chunk size and backing.
func partition(ds *dataset.Dataset, p int) ([]dataset.Range, error) {
	if ds.Chunked() {
		return dataset.AlignedBlockPartition(ds.N(), p, dataset.ChunkAlign)
	}
	return dataset.BlockPartition(ds.N(), p)
}

// PartitionView returns this rank's block of the dataset's partition.
func PartitionView(comm *mpi.Comm, ds *dataset.Dataset) (*dataset.View, error) {
	parts, err := partition(ds, comm.Size())
	if err != nil {
		return nil, err
	}
	rg := parts[comm.Rank()]
	return ds.View(rg.Lo, rg.Len())
}

// allreduceReducer adapts the group Allreduce (plus the optional virtual
// clock synchronization) to the engine's Reducer hook. It is an
// autoclass.MessageReducer: the clock charges the messages the engine
// names, while the buffer travels in one Allreduce.
type allreduceReducer struct {
	comm  *mpi.Comm
	clock *simnet.Clock
}

// NewAllreduceReducer returns an autoclass.Reducer that sums buffers across
// the group with Allreduce, charging the optional virtual clock at every
// exchange. It is exported for harnesses that drive the Engine cycle by
// cycle (e.g. the scaleup experiment).
func NewAllreduceReducer(comm *mpi.Comm, clock *simnet.Clock) autoclass.Reducer {
	return &allreduceReducer{comm: comm, clock: clock}
}

// ReduceInPlace implements autoclass.Reducer: buf as one message.
func (r *allreduceReducer) ReduceInPlace(buf []float64) error {
	return r.ReduceMessages(buf, []int{len(buf)})
}

// ReduceMessages implements autoclass.MessageReducer: one Allreduce of
// buf, charged to the clock as the messages of lengths lens.
func (r *allreduceReducer) ReduceMessages(buf []float64, lens []int) error {
	if err := r.comm.Allreduce(mpi.Sum, buf); err != nil {
		return err
	}
	if r.clock != nil {
		return r.clock.SyncAllreduce(r.comm, lens...)
	}
	return nil
}

// ParallelPriors computes the global data-dependent priors from distributed
// partitions: each rank summarizes its view, and per-attribute sums, counts
// and extrema are combined with Allreduce so every rank derives identical
// priors without ever seeing remote rows.
func ParallelPriors(comm *mpi.Comm, view *dataset.View, opts *Options) (*model.Priors, error) {
	ds := view.Dataset()
	na := ds.NumAttrs()
	// One clock sync per real exchange, or the virtual timeline diverges
	// from the traffic actually generated.
	var clk *simnet.Clock
	if opts != nil {
		clk = opts.Clock
	}
	syncClock := func(payload int) error {
		if clk == nil {
			return nil
		}
		return clk.SyncAllreduce(comm, payload)
	}
	// Layout: per attribute [wKnown, sum, sumsq, missing, logW, logSum,
	// logSumSq, nonPositive] + discrete counts.
	const perAttr = 8
	sums := make([]float64, perAttr*na)
	mins := make([]float64, na)
	maxs := make([]float64, na)
	var counts []float64
	countOffset := make([]int, na)
	for k := 0; k < na; k++ {
		mins[k] = math.Inf(1)
		maxs[k] = math.Inf(-1)
		countOffset[k] = len(counts)
		if ds.Attr(k).Type == dataset.Discrete {
			counts = append(counts, make([]float64, ds.Attr(k).Cardinality())...)
		}
	}
	row := make([]float64, na)
	for i := 0; i < view.N(); i++ {
		view.RowTo(row, i)
		for k, v := range row {
			if dataset.IsMissing(v) {
				sums[perAttr*k+3]++
				continue
			}
			switch ds.Attr(k).Type {
			case dataset.Real:
				sums[perAttr*k] += 1
				sums[perAttr*k+1] += v
				sums[perAttr*k+2] += v * v
				if v > 0 {
					lv := math.Log(v)
					sums[perAttr*k+4] += 1
					sums[perAttr*k+5] += lv
					sums[perAttr*k+6] += lv * lv
				} else {
					sums[perAttr*k+7]++
				}
				if v < mins[k] {
					mins[k] = v
				}
				if v > maxs[k] {
					maxs[k] = v
				}
			case dataset.Discrete:
				counts[countOffset[k]+int(v)]++
			}
		}
	}
	if clk != nil {
		clk.ChargeOps(float64(view.N()) * float64(na))
	}
	if err := comm.Allreduce(mpi.Sum, sums); err != nil {
		return nil, fmt.Errorf("pautoclass: priors sums: %w", err)
	}
	if err := syncClock(len(sums)); err != nil {
		return nil, err
	}
	if err := comm.Allreduce(mpi.Min, mins); err != nil {
		return nil, fmt.Errorf("pautoclass: priors mins: %w", err)
	}
	if err := syncClock(len(mins)); err != nil {
		return nil, err
	}
	if err := comm.Allreduce(mpi.Max, maxs); err != nil {
		return nil, fmt.Errorf("pautoclass: priors maxs: %w", err)
	}
	if err := syncClock(len(maxs)); err != nil {
		return nil, err
	}
	if len(counts) > 0 {
		if err := comm.Allreduce(mpi.Sum, counts); err != nil {
			return nil, fmt.Errorf("pautoclass: priors counts: %w", err)
		}
		if err := syncClock(len(counts)); err != nil {
			return nil, err
		}
	}
	nGlobal, err := comm.AllreduceFloat64(mpi.Sum, float64(view.N()))
	if err != nil {
		return nil, fmt.Errorf("pautoclass: priors n: %w", err)
	}
	if err := syncClock(1); err != nil {
		return nil, err
	}
	// Rebuild a dataset.Summary from the reduced values and derive priors
	// through the same code path the sequential engine uses.
	sum := &dataset.Summary{
		N:            int(nGlobal),
		Real:         make([]stats.Moments, na),
		LogReal:      make([]stats.Moments, na),
		NonPositive:  make([]int, na),
		Min:          mins,
		Max:          maxs,
		Counts:       make([][]int, na),
		MissingCount: make([]int, na),
	}
	for k := 0; k < na; k++ {
		sum.MissingCount[k] = int(sums[perAttr*k+3])
		switch ds.Attr(k).Type {
		case dataset.Real:
			sum.Real[k] = stats.MomentsFromSums(sums[perAttr*k], sums[perAttr*k+1], sums[perAttr*k+2])
			sum.LogReal[k] = stats.MomentsFromSums(sums[perAttr*k+4], sums[perAttr*k+5], sums[perAttr*k+6])
			sum.NonPositive[k] = int(sums[perAttr*k+7])
		case dataset.Discrete:
			card := ds.Attr(k).Cardinality()
			c := make([]int, card)
			for v := 0; v < card; v++ {
				c[v] = int(counts[countOffset[k]+v])
			}
			sum.Counts[k] = c
		}
	}
	return model.NewPriors(ds, sum), nil
}

// trial is the SPMD engine's per-try runner, which Search hands to the
// variant scheduler. Every rank of the group runs the same variants in the
// same order.
type trial struct {
	comm    *mpi.Comm
	view    *dataset.View
	pr      *model.Priors
	spec    model.Spec
	opts    Options
	charger autoclass.Charger
	reducer autoclass.Reducer
	// so and total turn each try's cycles into TryCycle events; set on
	// rank 0 of an observed Search only.
	so    autoclass.SearchObserver
	total int
	// state and seed drive the checkpoint protocol of a checkpointed
	// Search (see checkpoint.go); state is nil otherwise.
	state *autoclass.SearchState
	seed  uint64
}

func newTrial(comm *mpi.Comm, view *dataset.View, pr *model.Priors, spec model.Spec, opts Options) *trial {
	// A nil *simnet.Clock must become a nil Charger interface, not a
	// non-nil interface wrapping a nil pointer.
	var charger autoclass.Charger
	if opts.Clock != nil {
		charger = opts.Clock
		opts.Clock.SetParallelism(opts.EM.EffectiveParallelism())
	}
	opts.install(comm)
	return &trial{
		comm: comm, view: view, pr: pr, spec: spec, opts: opts, charger: charger,
		reducer: &allreduceReducer{comm: comm, clock: opts.Clock},
	}
}

// run executes variant v on this rank under the selected strategy.
func (t *trial) run(v autoclass.Variant) (*autoclass.Classification, autoclass.EMResult, error) {
	var zero autoclass.EMResult
	if ck := t.opts.Checkpoint; t.state != nil && ck.Interrupt != nil {
		// Try boundary: an agreed stop needs no snapshot — the state file
		// already holds every committed try.
		stop, err := agreeInterrupt(t.comm, ck.Interrupt)
		if err != nil {
			return nil, zero, err
		}
		if stop {
			return nil, zero, ErrInterrupted
		}
	}
	var co autoclass.CycleObserver
	if t.opts.Obs != nil {
		co = t.opts.Obs
	}
	if t.so != nil {
		co = autoclass.NewTryCycleObserver(t.so, co, v, t.total)
	}
	switch t.opts.Strategy {
	case Full:
		return t.runFull(v, co)
	case WtsOnly:
		cls, err := autoclass.NewClassification(t.view.Dataset(), t.spec, t.pr, v.StartJ)
		if err != nil {
			return nil, zero, err
		}
		eng, err := newWtsOnlyEngine(t.comm, t.view, cls, t.opts, co)
		if err != nil {
			return nil, zero, err
		}
		if err := eng.InitRandom(v.Seed); err != nil {
			return nil, zero, err
		}
		res, err := eng.Run()
		if err != nil {
			return nil, zero, err
		}
		return cls, res, nil
	default:
		return nil, zero, fmt.Errorf("pautoclass: unknown strategy %d", int(t.opts.Strategy))
	}
}

// runFull runs v on the Full-strategy engine, continuing from the state's
// mid-try snapshot when the checkpoint holds one for v.
func (t *trial) runFull(v autoclass.Variant, co autoclass.CycleObserver) (*autoclass.Classification, autoclass.EMResult, error) {
	var zero autoclass.EMResult
	in := t.state.InTry(v)
	var cls *autoclass.Classification
	if in != nil {
		cls = in.Classification
	} else {
		c, err := autoclass.NewClassification(t.view.Dataset(), t.spec, t.pr, v.StartJ)
		if err != nil {
			return nil, zero, err
		}
		cls = c
	}
	eng, err := autoclass.NewEngine(t.view, cls, t.opts.EM, t.reducer, t.charger)
	if err != nil {
		return nil, zero, err
	}
	if co != nil {
		eng.SetCycleObserver(co)
	}
	from := 0
	if in != nil {
		sp := in.Search
		eng.Restore(autoclass.EngineState{
			Cycles: cls.Cycles, BelowTol: sp.BelowTol, LastPost: sp.LastPost,
			Reductions: sp.Reductions, ReducedValues: sp.ReducedValues,
		})
		from = sp.CycleInTry
	} else if err := eng.InitRandom(v.Seed); err != nil {
		return nil, zero, err
	}
	if ck := t.opts.Checkpoint; t.state != nil && (ck.Every > 0 || ck.Interrupt != nil) {
		eng.SetCycleHook(t.snapshotHook(eng, v))
	}
	em, err := eng.RunFrom(from)
	if err != nil {
		return nil, zero, err
	}
	if in != nil {
		// em counts only the cycles since the resume; the snapshot carries
		// the try's earlier cycles and reducer traffic.
		em.Cycles += in.Search.CycleInTry
		em.Reductions += in.Search.Reductions
		em.ReducedValues += in.Search.ReducedValues
	}
	return cls, em, nil
}

// Search runs the full replicated BIG_LOOP in parallel. Every rank drives
// its own copy of the variant scheduler with one worker, so the group runs
// one try at a time, as the paper's program does: the SPMD runner
// communicates through this rank's communicator, and two tries on one rank
// would interleave their collectives. cfg.SearchParallelism is ignored
// here; concurrent tries run on the sequential engine (autoclass.Search).
// Every rank returns the identical SearchResult.
//
// With opts.Checkpoint.Path set the search persists its progress (committed
// tries after every try, plus a mid-try snapshot every Checkpoint.Every
// cycles) and, when the file already holds the progress of the identical
// search over the same dataset by this engine, resumes where it stopped,
// bitwise-identically to an uninterrupted run. Only the Full strategy
// supports checkpointing.
func Search(comm *mpi.Comm, ds *dataset.Dataset, spec model.Spec,
	cfg autoclass.SearchConfig, opts Options) (*autoclass.SearchResult, error) {
	if ds.N() == 0 {
		return nil, errors.New("pautoclass: empty dataset")
	}
	ck := opts.Checkpoint
	switch {
	case ck.Path == "" && (ck.Every != 0 || ck.Interrupt != nil):
		return nil, errors.New("pautoclass: checkpoint Every and Interrupt need a Path")
	case ck.Path != "" && opts.Strategy != Full:
		return nil, fmt.Errorf("pautoclass: checkpointing supports only the %v strategy", Full)
	}
	sched, err := autoclass.NewSearchScheduler(cfg, 1)
	if err != nil {
		return nil, err
	}
	opts.EM = cfg.EM
	view, err := PartitionView(comm, ds)
	if err != nil {
		return nil, err
	}
	opts.install(comm)
	pr, err := ParallelPriors(comm, view, &opts)
	if err != nil {
		return nil, err
	}
	t := newTrial(comm, view, pr, spec, opts)
	t.seed = cfg.Seed
	// Every rank runs the identical loop, so rank 0 alone reports it: the
	// scheduler supplies claims and commit verdicts, the runner TryCycle
	// events.
	if opts.SearchObs != nil && comm.Rank() == 0 {
		sched.SetObserver(opts.SearchObs)
		t.so, t.total = opts.SearchObs, len(cfg.Variants())
	}
	if ck.Path != "" {
		if t.state, err = loadState(comm, ck.Path, cfg, ds); err != nil {
			return nil, err
		}
	}
	return sched.Run(t.state, func(int) autoclass.VariantRunner { return t.run })
}
