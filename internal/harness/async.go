package harness

import (
	"fmt"

	"repro/internal/autoclass"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pautoclass"
	"repro/internal/simnet"
)

// The ASYNC experiment: the communication fraction of a base_cycle as ranks
// are added, for several bounded-staleness schedules L = SyncEvery. The
// paper's Fig. 8 saturation comes from one global exchange per cycle; with
// L > 1 only every L-th cycle pays the full exchange (stale cycles cost a
// single 1-value drift flag), so the comm fraction — and with it the
// scaleup wall — drops by roughly 1/L. The virtual clock charges exactly
// the collectives the engine actually performs, so the reduced fraction
// falls out of the cost model with no separate accounting.

// AsyncConfig configures the comm-fraction-vs-ranks sweep.
type AsyncConfig struct {
	Opts Options
	// TuplesPerProc is the fixed per-processor partition size.
	TuplesPerProc int
	// Procs are the rank counts.
	Procs []int
	// SyncEvery are the staleness schedules to compare; include 1 for the
	// synchronous baseline.
	SyncEvery []int
	// Clusters is the class count.
	Clusters int
	// Cycles is how many base_cycle iterations each cell runs.
	Cycles int
}

// DefaultAsyncConfig returns the standard sweep: the paper's rank range at
// 10 000 tuples/processor, L ∈ {1, 2, 4, 8}.
func DefaultAsyncConfig() AsyncConfig {
	return AsyncConfig{
		Opts:          DefaultOptions(),
		TuplesPerProc: 10000,
		Procs:         []int{2, 4, 6, 8, 10},
		SyncEvery:     []int{1, 2, 4, 8},
		Clusters:      8,
		Cycles:        8,
	}
}

// AsyncResult holds the measured comm fractions and collective counts.
type AsyncResult struct {
	Procs     []int
	SyncEvery []int
	// CommFraction[li][pi] is comm seconds / total virtual seconds for
	// SyncEvery[li] on Procs[pi] ranks.
	CommFraction [][]float64
	// Collectives[li][pi] is rank 0's collective count over the measured
	// cycles.
	Collectives [][]int
}

// RunAsync executes the sweep.
func RunAsync(cfg AsyncConfig) (*AsyncResult, error) {
	if err := cfg.Opts.validate(); err != nil {
		return nil, err
	}
	if cfg.TuplesPerProc < 1 || cfg.Cycles < 1 || cfg.Clusters < 1 ||
		len(cfg.Procs) == 0 || len(cfg.SyncEvery) == 0 {
		return nil, fmt.Errorf("harness: invalid async config")
	}
	res := &AsyncResult{Procs: cfg.Procs, SyncEvery: cfg.SyncEvery}
	for _, l := range cfg.SyncEvery {
		fr := make([]float64, len(cfg.Procs))
		cc := make([]int, len(cfg.Procs))
		for pi, p := range cfg.Procs {
			f, c, err := asyncCell(cfg, l, p)
			if err != nil {
				return nil, fmt.Errorf("harness: async L=%d p=%d: %w", l, p, err)
			}
			fr[pi] = f
			cc[pi] = c
		}
		res.CommFraction = append(res.CommFraction, fr)
		res.Collectives = append(res.Collectives, cc)
	}
	return res, nil
}

// asyncCell measures one (L, P) cell: the comm fraction of cfg.Cycles
// base_cycle iterations (excluding initialization, which is identical
// across schedules) and rank 0's collective count over those cycles.
func asyncCell(cfg AsyncConfig, l, p int) (float64, int, error) {
	n := cfg.TuplesPerProc * p
	ds, err := paperDataset(n, cfg.Opts.DataSeed)
	if err != nil {
		return 0, 0, err
	}
	em := cfg.Opts.Search.EM
	em.PruneClasses = false // hold J fixed for a clean per-cycle measure
	em.Granularity = cfg.Opts.Granularity
	em.SyncEvery = l
	em.SyncDriftTol = 0 // pure schedule: the curve isolates L
	em.MaxCycles = cfg.Cycles + 1
	var fraction float64
	var colls int
	runErr := mpi.Run(p, func(c *mpi.Comm) error {
		clk, err := simnet.NewClock(cfg.Opts.Machine)
		if err != nil {
			return err
		}
		view, err := pautoclass.PartitionView(c, ds)
		if err != nil {
			return err
		}
		pr, err := pautoclass.ParallelPriors(c, view, &pautoclass.Options{Clock: clk})
		if err != nil {
			return err
		}
		cls, err := autoclass.NewClassification(ds, model.DefaultSpec(ds), pr, cfg.Clusters)
		if err != nil {
			return err
		}
		red := pautoclass.NewAllreduceReducer(c, clk)
		eng, err := autoclass.NewEngine(view, cls, em, red, clk)
		if err != nil {
			return err
		}
		if err := eng.InitRandom(cfg.Opts.Search.Seed); err != nil {
			return err
		}
		if err := clk.SyncBarrier(c); err != nil {
			return err
		}
		startT := clk.Elapsed()
		startComm := clk.CommSeconds()
		startColl := clk.Collectives()
		// The first measured cycle bootstraps the stale baseline (a full
		// synchronous exchange); the steady-state schedule follows.
		for cyc := 0; cyc < cfg.Cycles; cyc++ {
			if _, err := eng.BaseCycle(); err != nil {
				return err
			}
		}
		if err := clk.SyncBarrier(c); err != nil {
			return err
		}
		if c.Rank() == 0 {
			total := clk.Elapsed() - startT
			comm := clk.CommSeconds() - startComm
			if total > 0 {
				fraction = comm / total
			}
			colls = clk.Collectives() - startColl
		}
		return nil
	})
	if runErr != nil {
		return 0, 0, runErr
	}
	return fraction, colls, nil
}

// Table renders the comm-fraction curve.
func (r *AsyncResult) Table() string {
	headers := []string{"L \\ procs"}
	for _, p := range r.Procs {
		headers = append(headers, fmt.Sprintf("%d", p))
	}
	var rows [][]string
	for li, l := range r.SyncEvery {
		row := []string{fmt.Sprintf("%d", l)}
		for pi := range r.Procs {
			row = append(row, fmt.Sprintf("%.3f", r.CommFraction[li][pi]))
		}
		rows = append(rows, row)
	}
	return "ASYNC — communication fraction of a base_cycle, fixed tuples/processor\n" +
		formatTable(headers, rows)
}

// CheckShape verifies the claims the bounded-staleness mode makes: at every
// rank count, raising L lowers both the collective count and the comm
// fraction (monotonically across the configured ladder), and the comm
// fraction grows with ranks within each schedule (the saturation shape the
// relaxation pushes outward).
func (r *AsyncResult) CheckShape() []string {
	var bad []string
	for li := 1; li < len(r.SyncEvery); li++ {
		for pi := range r.Procs {
			if r.SyncEvery[li] <= r.SyncEvery[li-1] {
				continue
			}
			if r.Collectives[li][pi] >= r.Collectives[li-1][pi] {
				bad = append(bad, fmt.Sprintf("L=%d p=%d: %d collectives, not below L=%d's %d",
					r.SyncEvery[li], r.Procs[pi], r.Collectives[li][pi],
					r.SyncEvery[li-1], r.Collectives[li-1][pi]))
			}
			if r.CommFraction[li][pi] >= r.CommFraction[li-1][pi] {
				bad = append(bad, fmt.Sprintf("L=%d p=%d: comm fraction %.3f, not below L=%d's %.3f",
					r.SyncEvery[li], r.Procs[pi], r.CommFraction[li][pi],
					r.SyncEvery[li-1], r.CommFraction[li-1][pi]))
			}
		}
	}
	return bad
}
