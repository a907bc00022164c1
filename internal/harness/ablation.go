package harness

import (
	"fmt"

	"repro/internal/pautoclass"
	"repro/internal/simnet"
)

// AblationConfig configures the ABLAT experiment: the paper's §5 comparison
// of P-AutoClass against the prior MIMD prototype [7] that parallelized
// only update_wts, plus a design-choice ablation of the exchange: the
// clock charges one Allreduce of {w_j, logL | statistics} per cycle, the
// message the runtime sends, instead of the paper's w_j message and one
// message per class × term (its Fig. 5 structure).
type AblationConfig struct {
	Opts Options
	// N is the dataset size.
	N int
	// Procs are the processor counts.
	Procs []int
}

// DefaultAblationConfig uses a 40K-tuple dataset over 1..10 processors.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{
		Opts:  DefaultOptions(),
		N:     40000,
		Procs: []int{1, 2, 4, 6, 8, 10},
	}
}

// AblationResult holds virtual elapsed seconds per variant and P.
type AblationResult struct {
	Procs []int
	// Full is P-AutoClass charged with the paper's messages; WtsOnly is
	// the [7] baseline; OneExchange is P-AutoClass charged with one
	// Allreduce per cycle.
	Full, WtsOnly, OneExchange []float64
}

// RunAblation executes the three variants over the processor sweep.
func RunAblation(cfg AblationConfig) (*AblationResult, error) {
	if err := cfg.Opts.validate(); err != nil {
		return nil, err
	}
	if cfg.N < 1 || len(cfg.Procs) == 0 {
		return nil, fmt.Errorf("harness: invalid ablation config")
	}
	ds, err := paperDataset(cfg.N, cfg.Opts.DataSeed)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Procs: cfg.Procs}
	variants := []struct {
		name        string
		strategy    pautoclass.Strategy
		oneExchange bool
		out         *[]float64
	}{
		{"full", pautoclass.Full, false, &res.Full},
		{"wts-only", pautoclass.WtsOnly, false, &res.WtsOnly},
		{"one-exchange", pautoclass.Full, true, &res.OneExchange},
	}
	for _, v := range variants {
		opts := cfg.Opts
		opts.Strategy = v.strategy
		opts.OneExchange = v.oneExchange
		for _, p := range cfg.Procs {
			mean, err := meanElapsedParallel(ds, p, opts)
			if err != nil {
				return nil, fmt.Errorf("harness: ablation %s p=%d: %w", v.name, p, err)
			}
			*v.out = append(*v.out, mean)
		}
	}
	return res, nil
}

// Table renders the ablation comparison.
func (r *AblationResult) Table() string {
	headers := []string{"procs", "P-AutoClass (per-term)", "wts-only [7]", "P-AutoClass (one exchange)"}
	var rows [][]string
	for pi, p := range r.Procs {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p),
			simnet.FormatHMS(r.Full[pi]),
			simnet.FormatHMS(r.WtsOnly[pi]),
			simnet.FormatHMS(r.OneExchange[pi]),
		})
	}
	return "Ablation — elapsed time by parallelization strategy [h.mm.ss]\n" +
		formatTable(headers, rows)
}

// CheckShape verifies the §5 claim: for every P > 1, full parallelization
// beats the wts-only baseline; and the one exchange never loses to the
// paper's messages (message aggregation can only help under the model).
func (r *AblationResult) CheckShape() []string {
	var bad []string
	for pi, p := range r.Procs {
		if p == 1 {
			continue
		}
		if r.Full[pi] >= r.WtsOnly[pi] {
			bad = append(bad, fmt.Sprintf("P=%d: full (%.1fs) does not beat wts-only (%.1fs)",
				p, r.Full[pi], r.WtsOnly[pi]))
		}
		if r.OneExchange[pi] > r.Full[pi]*1.001 {
			bad = append(bad, fmt.Sprintf("P=%d: one exchange (%.1fs) slower than per-term (%.1fs)",
				p, r.OneExchange[pi], r.Full[pi]))
		}
	}
	return bad
}
