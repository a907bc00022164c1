package harness

import (
	"fmt"

	"repro/internal/autoclass"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pautoclass"
	"repro/internal/simnet"
)

// Fig8Config configures the scaleup experiment (paper Fig. 8): the time of
// a single base_cycle iteration with the tuples-per-processor count held
// fixed while processors are added, for 8 and 16 clusters.
type Fig8Config struct {
	Opts Options
	// TuplesPerProc is the fixed per-processor partition size (the paper
	// holds 10 000 tuples per processor).
	TuplesPerProc int
	// Procs are the processor counts.
	Procs []int
	// Clusters are the class counts (the paper groups into 8 and 16).
	Clusters []int
	// Cycles is how many base_cycle iterations to average over.
	Cycles int
}

// DefaultFig8Config returns the paper's configuration.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		Opts:          DefaultOptions(),
		TuplesPerProc: 10000,
		Procs:         []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		Clusters:      []int{8, 16},
		Cycles:        5,
	}
}

// Fig8Result holds seconds per base_cycle iteration per (clusters, P).
type Fig8Result struct {
	Procs    []int
	Clusters []int
	// SecondsPerCycle[ci][pi] is the mean per-iteration virtual time for
	// Clusters[ci] classes on Procs[pi] processors.
	SecondsPerCycle [][]float64
}

// RunFig8 executes the scaleup sweep.
func RunFig8(cfg Fig8Config) (*Fig8Result, error) {
	if err := cfg.Opts.validate(); err != nil {
		return nil, err
	}
	if cfg.TuplesPerProc < 1 || cfg.Cycles < 1 || len(cfg.Procs) == 0 || len(cfg.Clusters) == 0 {
		return nil, fmt.Errorf("harness: invalid fig8 config")
	}
	res := &Fig8Result{Procs: cfg.Procs, Clusters: cfg.Clusters}
	for _, j := range cfg.Clusters {
		row := make([]float64, len(cfg.Procs))
		for pi, p := range cfg.Procs {
			perCycle, err := scaleupCell(cfg, j, p)
			if err != nil {
				return nil, fmt.Errorf("harness: fig8 j=%d p=%d: %w", j, p, err)
			}
			row[pi] = perCycle
		}
		res.SecondsPerCycle = append(res.SecondsPerCycle, row)
	}
	return res, nil
}

// scaleupCell measures the mean per-cycle virtual time for one (J, P) cell,
// averaged over repeats.
func scaleupCell(cfg Fig8Config, j, p int) (float64, error) {
	n := cfg.TuplesPerProc * p
	ds, err := paperDataset(n, cfg.Opts.DataSeed)
	if err != nil {
		return 0, err
	}
	em := cfg.Opts.Search.EM
	em.PruneClasses = false // hold J fixed for a clean per-cycle measure
	total := 0.0
	for rep := 0; rep < cfg.Opts.Repeats; rep++ {
		seed := cfg.Opts.Search.Seed + uint64(rep)*104729
		var cell float64
		runErr := mpi.Run(p, func(c *mpi.Comm) error {
			clk, err := simnet.NewClock(cfg.Opts.Machine)
			if err != nil {
				return err
			}
			clk.SetOneExchange(cfg.Opts.OneExchange)
			clk.SetAllreduceAlgo(cfg.Opts.AllreduceAlgo)
			view, err := pautoclass.PartitionView(c, ds)
			if err != nil {
				return err
			}
			pr, err := pautoclass.ParallelPriors(c, view, &pautoclass.Options{Clock: clk})
			if err != nil {
				return err
			}
			cls, err := autoclass.NewClassification(ds, model.DefaultSpec(ds), pr, j)
			if err != nil {
				return err
			}
			red := pautoclass.NewAllreduceReducer(c, clk)
			eng, err := autoclass.NewEngine(view, cls, em, red, clk)
			if err != nil {
				return err
			}
			if err := eng.InitRandom(seed); err != nil {
				return err
			}
			if err := clk.SyncBarrier(c); err != nil {
				return err
			}
			start := clk.Elapsed()
			for cyc := 0; cyc < cfg.Cycles; cyc++ {
				if _, err := eng.BaseCycle(); err != nil {
					return err
				}
			}
			if err := clk.SyncBarrier(c); err != nil {
				return err
			}
			if c.Rank() == 0 {
				cell = (clk.Elapsed() - start) / float64(cfg.Cycles)
			}
			return nil
		})
		if runErr != nil {
			return 0, runErr
		}
		total += cell
	}
	return total / float64(cfg.Opts.Repeats), nil
}

// ScaleupRatio returns T(maxP)/T(minP) for one cluster row — near 1.0 means
// perfect scaleup ("nearly constant execution times", paper §4).
func (r *Fig8Result) ScaleupRatio(ci int) float64 {
	row := r.SecondsPerCycle[ci]
	if row[0] == 0 {
		return 0
	}
	return row[len(row)-1] / row[0]
}

// Table renders Fig. 8: times per base_cycle iteration (seconds).
func (r *Fig8Result) Table() string {
	headers := []string{"clusters \\ procs"}
	for _, p := range r.Procs {
		headers = append(headers, fmt.Sprintf("%d", p))
	}
	var rows [][]string
	for ci, j := range r.Clusters {
		row := []string{fmt.Sprintf("%d", j)}
		for pi := range r.Procs {
			row = append(row, fmt.Sprintf("%.3f", r.SecondsPerCycle[ci][pi]))
		}
		rows = append(rows, row)
	}
	return "Fig 8 — time per base_cycle iteration [s], fixed tuples/processor\n" +
		formatTable(headers, rows)
}

// CheckShape verifies the paper's scaleup claims: per-cycle time is nearly
// flat in P (within 25%), never improves below the 1-processor time, and
// doubling the clusters roughly doubles the per-cycle time.
func (r *Fig8Result) CheckShape() []string {
	var bad []string
	for ci, j := range r.Clusters {
		ratio := r.ScaleupRatio(ci)
		if ratio > 1.25 {
			bad = append(bad, fmt.Sprintf("clusters=%d: per-cycle time grew %.0f%% from min to max P", j, 100*(ratio-1)))
		}
		if ratio < 0.95 {
			bad = append(bad, fmt.Sprintf("clusters=%d: per-cycle time impossibly shrank (ratio %.2f)", j, ratio))
		}
	}
	if len(r.Clusters) == 2 && r.Clusters[1] == 2*r.Clusters[0] {
		a := r.SecondsPerCycle[0][0]
		b := r.SecondsPerCycle[1][0]
		if b < 1.5*a || b > 2.5*a {
			bad = append(bad, fmt.Sprintf("doubling clusters scaled per-cycle time by %.2f, expected ~2", b/a))
		}
	}
	return bad
}
