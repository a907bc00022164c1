package harness

import (
	"fmt"
	"time"

	"repro/internal/autoclass"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pautoclass"
	"repro/internal/simnet"
)

// ProfileConfig configures the TPROF experiment: reproducing §3.1's
// profiling of sequential AutoClass ("the time spent in the base_cycle
// function ... resulted about the 99.5% of the total time"; update_wts and
// update_parameters dominate; update_approximations is negligible).
type ProfileConfig struct {
	// N is the dataset size (the paper profiles a 14K-tuple run).
	N int
	// Search configures the BIG_LOOP.
	Search autoclass.SearchConfig
	// DataSeed seeds the workload generator.
	DataSeed uint64
}

// DefaultProfileConfig uses the paper's 14K-tuple anchor.
func DefaultProfileConfig() ProfileConfig {
	search := autoclass.DefaultSearchConfig()
	search.StartJList = []int{2, 4, 8}
	search.Tries = 1
	search.EM.MaxCycles = 20
	return ProfileConfig{N: 14000, Search: search, DataSeed: 42}
}

// ProfileResult is the measured phase breakdown.
type ProfileResult struct {
	// TotalSeconds is the wall-clock time of the whole search, including
	// summary/prior computation and the BIG_LOOP driver.
	TotalSeconds float64
	// WtsSeconds, ParamsSeconds, ApproxSeconds and InitSeconds are the
	// accumulated phase times, and Cycles and Tries their call counts: the
	// search's SearchResult.Totals and its try count.
	WtsSeconds, ParamsSeconds, ApproxSeconds, InitSeconds float64
	Cycles, Tries                                         int
}

// BaseCycleShare returns the fraction of total time inside base_cycle.
func (r *ProfileResult) BaseCycleShare() float64 {
	if r.TotalSeconds == 0 {
		return 0
	}
	return (r.WtsSeconds + r.ParamsSeconds + r.ApproxSeconds) / r.TotalSeconds
}

// ApproxShare returns update_approximations' fraction of base_cycle time.
func (r *ProfileResult) ApproxShare() float64 {
	base := r.WtsSeconds + r.ParamsSeconds + r.ApproxSeconds
	if base == 0 {
		return 0
	}
	return r.ApproxSeconds / base
}

// RunProfile executes the profiling run. It profiles the paper's
// sequential per-row algorithm — an E-step into an n×J weights matrix,
// then a statistics pass over it — which is the WtsOnly engine on one
// rank. The Full engine fuses the two passes over blocked kernels, so it
// cannot show update_parameters' share, and its blocked kernels exist
// precisely to shrink base_cycle's share of the total (the KERN
// experiment in EXPERIMENTS.md quantifies that shift).
func RunProfile(cfg ProfileConfig) (*ProfileResult, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("harness: profile N=%d", cfg.N)
	}
	ds, err := paperDataset(cfg.N, cfg.DataSeed)
	if err != nil {
		return nil, err
	}
	var res *autoclass.SearchResult
	start := time.Now()
	err = mpi.Run(1, func(c *mpi.Comm) error {
		opts := pautoclass.Options{Strategy: pautoclass.WtsOnly}
		var err error
		res, err = pautoclass.Search(c, ds, model.DefaultSpec(ds), cfg.Search, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &ProfileResult{
		TotalSeconds:  time.Since(start).Seconds(),
		WtsSeconds:    res.Totals.WtsSeconds,
		ParamsSeconds: res.Totals.ParamsSeconds,
		ApproxSeconds: res.Totals.ApproxSeconds,
		InitSeconds:   res.Totals.InitSeconds,
		Cycles:        res.Totals.Cycles,
		Tries:         len(res.Tries),
	}, nil
}

// Table renders the §3.1 profile claims next to the measurements: the
// phase table of the search's Totals, the wall time the phases leave out
// (IO, driver, summary), and the two shares the paper states.
func (r *ProfileResult) Table() string {
	totals := autoclass.EMResult{
		Cycles: r.Cycles, WtsSeconds: r.WtsSeconds, ParamsSeconds: r.ParamsSeconds,
		ApproxSeconds: r.ApproxSeconds, InitSeconds: r.InitSeconds,
	}
	return fmt.Sprintf(
		"Profile of sequential AutoClass (paper §3.1)\n%s\nsearch wall time: %.6f s, %.6f s outside the phases (IO, driver, summary)\nbase_cycle share of total: %.2f%% (paper: ~99.5%%)\nupdate_approximations share of base_cycle: %.2f%% (paper: negligible)\n",
		totals.PhaseTable(r.Tries), r.TotalSeconds, r.TotalSeconds-totals.TotalSeconds(),
		100*r.BaseCycleShare(), 100*r.ApproxShare())
}

// CheckShape verifies the §3.1 claims.
func (r *ProfileResult) CheckShape() []string {
	var bad []string
	if r.BaseCycleShare() < 0.98 {
		bad = append(bad, fmt.Sprintf("base_cycle only %.1f%% of total (paper: ~99.5%%)", 100*r.BaseCycleShare()))
	}
	if r.ApproxShare() > 0.02 {
		bad = append(bad, fmt.Sprintf("update_approximations %.1f%% of base_cycle (paper: negligible)", 100*r.ApproxShare()))
	}
	if r.WtsSeconds <= r.ApproxSeconds || r.ParamsSeconds <= r.ApproxSeconds {
		bad = append(bad, "update_wts/update_parameters do not dominate update_approximations")
	}
	return bad
}

// SeqAnchorConfig configures the TSEQ experiment: §3's observation that
// sequential execution time increases linearly with dataset size (14K
// tuples ≈ 3 h on a Pentium PC ⇒ 140K tuples > 1 day).
type SeqAnchorConfig struct {
	// Sizes are the dataset sizes to sweep.
	Sizes []int
	// Machine converts op counts to the anchor machine's seconds.
	Machine simnet.Machine
	// Search configures the sequential BIG_LOOP (fixed-cycle protocol
	// recommended for clean linearity).
	Search autoclass.SearchConfig
	// DataSeed seeds the generator.
	DataSeed uint64
}

// DefaultSeqAnchorConfig sweeps 14K to 140K on the Pentium model.
func DefaultSeqAnchorConfig() SeqAnchorConfig {
	search := autoclass.DefaultSearchConfig()
	search.StartJList = []int{2, 4, 8}
	search.Tries = 1
	search.EM.MaxCycles = 15
	search.EM.RelDelta = 0
	return SeqAnchorConfig{
		Sizes:    []int{14000, 28000, 56000, 84000, 112000, 140000},
		Machine:  simnet.PentiumPC(),
		Search:   search,
		DataSeed: 42,
	}
}

// SeqAnchorResult holds virtual sequential times per size.
type SeqAnchorResult struct {
	Sizes   []int
	Seconds []float64
}

// RunSeqAnchor executes the sweep on the simulated sequential machine.
func RunSeqAnchor(cfg SeqAnchorConfig) (*SeqAnchorResult, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	res := &SeqAnchorResult{Sizes: cfg.Sizes}
	for _, n := range cfg.Sizes {
		ds, err := paperDataset(n, cfg.DataSeed)
		if err != nil {
			return nil, err
		}
		clk, err := simnet.NewClock(cfg.Machine)
		if err != nil {
			return nil, err
		}
		if _, err := autoclass.Search(ds, model.DefaultSpec(ds), cfg.Search, &autoclass.SearchOptions{Charger: clk}); err != nil {
			return nil, err
		}
		res.Seconds = append(res.Seconds, clk.Elapsed())
	}
	return res, nil
}

// Table renders the sequential anchor sweep.
func (r *SeqAnchorResult) Table() string {
	headers := []string{"tuples", "time [h.mm.ss]", "s/tuple"}
	var rows [][]string
	for i, n := range r.Sizes {
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			simnet.FormatHMS(r.Seconds[i]),
			fmt.Sprintf("%.5f", r.Seconds[i]/float64(n)),
		})
	}
	return "Sequential AutoClass times on the Pentium PC model (paper §3 anchor)\n" +
		formatTable(headers, rows)
}

// CheckShape verifies linear growth: seconds per tuple constant within 15%.
func (r *SeqAnchorResult) CheckShape() []string {
	var bad []string
	if len(r.Sizes) < 2 {
		return bad
	}
	base := r.Seconds[0] / float64(r.Sizes[0])
	for i := 1; i < len(r.Sizes); i++ {
		perTuple := r.Seconds[i] / float64(r.Sizes[i])
		ratio := perTuple / base
		if ratio < 0.85 || ratio > 1.15 {
			bad = append(bad, fmt.Sprintf("size %d: %.4f s/tuple vs %.4f at base (not linear)",
				r.Sizes[i], perTuple, base))
		}
	}
	return bad
}
