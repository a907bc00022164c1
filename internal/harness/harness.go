// Package harness defines and runs the paper's experiments: one runner per
// figure or table of the evaluation section (§4) plus the profiling claims
// of §3.1. Each runner produces a result object that renders the same rows
// or series the paper reports, using the simulated Meiko CS-2 machine model
// for elapsed times (see package simnet and DESIGN.md's experiment index).
package harness

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pautoclass"
	"repro/internal/simnet"
)

// Options are the knobs shared by every experiment runner.
type Options struct {
	// Machine is the simulated multicomputer.
	Machine simnet.Machine
	// Search is the BIG_LOOP configuration template. The experiments use a
	// fixed-cycle protocol (RelDelta = 0 so every run executes exactly
	// EM.MaxCycles cycles) to keep the workload identical across P — the
	// timing differences then come only from the parallel structure.
	Search autoclass.SearchConfig
	// Repeats averages each measurement over this many repeated
	// classifications with distinct seeds ("each classification has been
	// repeated ... and results represent the mean values", paper §4).
	Repeats int
	// DataSeed seeds the synthetic dataset generator.
	DataSeed uint64
	// Strategy selects the parallel variant.
	Strategy pautoclass.Strategy
	// OneExchange makes the virtual clocks charge each EM exchange as the
	// one Allreduce the runtime sends instead of the paper's messages
	// (simnet.Clock.SetOneExchange): the ABLAT experiment's variant.
	OneExchange bool
	// AllreduceAlgo selects the collective algorithm whose cost the virtual
	// clocks charge at every Allreduce (simnet.Clock.SetAllreduceAlgo;
	// default ReduceBcast): the ALGO experiment's variants. The runtime
	// sends reduce+broadcast whatever it is.
	AllreduceAlgo simnet.AllreduceAlgo
}

// DefaultOptions returns the experiment defaults: the Meiko CS-2 model, a
// reduced but structurally faithful search (three start_j values, fixed 15
// cycles per try), and three repeats.
func DefaultOptions() Options {
	search := autoclass.DefaultSearchConfig()
	search.StartJList = []int{2, 4, 8}
	search.Tries = 1
	search.EM.MaxCycles = 15
	search.EM.RelDelta = 0 // fixed-cycle protocol
	return Options{
		Machine:  simnet.MeikoCS2(),
		Search:   search,
		Repeats:  3,
		DataSeed: 42,
		Strategy: pautoclass.Full,
	}
}

func (o Options) validate() error {
	if err := o.Machine.Validate(); err != nil {
		return err
	}
	if o.Repeats < 1 {
		return errors.New("harness: Repeats < 1")
	}
	return nil
}

// elapsedParallel runs one full parallel search of ds over p simulated
// processors and returns the virtual elapsed seconds (rank 0's clock, which
// equals every rank's clock after the final collective sync) and the
// virtual communication seconds.
func elapsedParallel(ds *dataset.Dataset, p int, opts Options, seed uint64) (elapsed, comm float64, err error) {
	cfg := opts.Search
	cfg.Seed = seed
	var e0, c0 float64
	runErr := mpi.Run(p, func(c *mpi.Comm) error {
		clk, err := simnet.NewClock(opts.Machine)
		if err != nil {
			return err
		}
		clk.SetOneExchange(opts.OneExchange)
		clk.SetAllreduceAlgo(opts.AllreduceAlgo)
		po := pautoclass.Options{Strategy: opts.Strategy, Clock: clk}
		if _, err := pautoclass.Search(c, ds, model.DefaultSpec(ds), cfg, po); err != nil {
			return err
		}
		// Final barrier sync so every clock reads the run's end time.
		if err := clk.SyncBarrier(c); err != nil {
			return err
		}
		if c.Rank() == 0 {
			e0, c0 = clk.Elapsed(), clk.CommSeconds()
		}
		return nil
	})
	if runErr != nil {
		return 0, 0, runErr
	}
	return e0, c0, nil
}

// meanElapsedParallel averages elapsedParallel over opts.Repeats seeds.
func meanElapsedParallel(ds *dataset.Dataset, p int, opts Options) (float64, error) {
	total := 0.0
	for rep := 0; rep < opts.Repeats; rep++ {
		e, _, err := elapsedParallel(ds, p, opts, opts.Search.Seed+uint64(rep)*7919)
		if err != nil {
			return 0, err
		}
		total += e
	}
	return total / float64(opts.Repeats), nil
}

// paperDataset builds the synthetic two-real-attribute dataset of §4.
func paperDataset(n int, seed uint64) (*dataset.Dataset, error) {
	return datagen.Paper(n, seed)
}

// formatTable renders an aligned text table.
func formatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
