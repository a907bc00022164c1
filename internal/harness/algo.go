package harness

import (
	"fmt"

	"repro/internal/simnet"
)

// AlgoConfig configures the collective-algorithm ablation: one P-AutoClass
// trajectory priced under three Allreduce cost models (reduce+bcast — the
// paper's pattern, recursive doubling, and a bandwidth-optimal ring), on
// the Meiko CS-2 and on a commodity PC cluster. The runtime sends
// reduce+bcast in every row; only the clocks' algorithm changes
// (simnet.Clock.SetAllreduceAlgo). The experiment quantifies a design
// choice the paper leaves implicit: with P-AutoClass's small statistics
// messages, latency dominates, so the tree algorithms win and the ring's
// 2(P−1) message rounds hurt.
type AlgoConfig struct {
	Opts Options
	// N is the dataset size.
	N int
	// Procs are the processor counts.
	Procs []int
	// Machines are the interconnects to model.
	Machines []simnet.Machine
}

// DefaultAlgoConfig sweeps 40K tuples over 2..10 processors on both
// machine models.
func DefaultAlgoConfig() AlgoConfig {
	return AlgoConfig{
		Opts:     DefaultOptions(),
		N:        40000,
		Procs:    []int{2, 4, 8, 10},
		Machines: []simnet.Machine{simnet.MeikoCS2(), simnet.PCCluster()},
	}
}

// algoList fixes the ablation's algorithm order.
var algoList = []simnet.AllreduceAlgo{simnet.ReduceBcast, simnet.RecursiveDoubling, simnet.Ring}

// AlgoResult holds mean elapsed virtual seconds per machine, algorithm and
// processor count.
type AlgoResult struct {
	Procs    []int
	Machines []string
	Algos    []simnet.AllreduceAlgo
	// Seconds[mi][ai][pi].
	Seconds [][][]float64
}

// RunAlgo executes the sweep.
func RunAlgo(cfg AlgoConfig) (*AlgoResult, error) {
	if err := cfg.Opts.validate(); err != nil {
		return nil, err
	}
	if cfg.N < 1 || len(cfg.Procs) == 0 || len(cfg.Machines) == 0 {
		return nil, fmt.Errorf("harness: invalid algo config")
	}
	ds, err := paperDataset(cfg.N, cfg.Opts.DataSeed)
	if err != nil {
		return nil, err
	}
	res := &AlgoResult{Procs: cfg.Procs, Algos: algoList}
	for _, m := range cfg.Machines {
		res.Machines = append(res.Machines, m.Name)
		perAlgo := make([][]float64, len(algoList))
		for ai, algo := range algoList {
			opts := cfg.Opts
			opts.Machine = m
			opts.AllreduceAlgo = algo
			row := make([]float64, len(cfg.Procs))
			for pi, p := range cfg.Procs {
				mean, err := meanElapsedParallel(ds, p, opts)
				if err != nil {
					return nil, fmt.Errorf("harness: algo %v machine %q p=%d: %w", algo, m.Name, p, err)
				}
				row[pi] = mean
			}
			perAlgo[ai] = row
		}
		res.Seconds = append(res.Seconds, perAlgo)
	}
	return res, nil
}

// Table renders the ablation, one block per machine.
func (r *AlgoResult) Table() string {
	out := "Allreduce algorithm ablation — elapsed time [s]\n"
	for mi, name := range r.Machines {
		headers := []string{name + " \\ procs"}
		for _, p := range r.Procs {
			headers = append(headers, fmt.Sprintf("%d", p))
		}
		var rows [][]string
		for ai, algo := range r.Algos {
			row := []string{algo.String()}
			for pi := range r.Procs {
				row = append(row, fmt.Sprintf("%.2f", r.Seconds[mi][ai][pi]))
			}
			rows = append(rows, row)
		}
		out += formatTable(headers, rows) + "\n"
	}
	return out
}

// CheckShape verifies the latency-dominance conclusions: recursive doubling
// never loses to reduce+bcast (it runs at most the same number of rounds),
// and the ring never wins at the largest P (its 2(P−1) latency rounds
// exceed the trees' for AutoClass's message sizes).
func (r *AlgoResult) CheckShape() []string {
	var bad []string
	last := len(r.Procs) - 1
	const tol = 1.001
	for mi, name := range r.Machines {
		rb, rd, ring := r.Seconds[mi][0], r.Seconds[mi][1], r.Seconds[mi][2]
		for pi, p := range r.Procs {
			if rd[pi] > rb[pi]*tol {
				bad = append(bad, fmt.Sprintf("%s P=%d: recursive doubling (%.2fs) slower than reduce+bcast (%.2fs)",
					name, p, rd[pi], rb[pi]))
			}
		}
		if ring[last] < rd[last] {
			bad = append(bad, fmt.Sprintf("%s: ring unexpectedly fastest at P=%d", name, r.Procs[last]))
		}
	}
	return bad
}
