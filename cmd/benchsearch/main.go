// Command benchsearch benchmarks the variant-parallel BIG_LOOP scheduler
// and writes BENCH_search.json: the committed baseline of the ISSUE-6
// search parallelization.
//
// It runs the paper's synthetic workload through the sequential search
// once, takes every try's measured phase seconds as that try's cost, and
// replays the scheduler's promise-order claim discipline over a W-worker
// pool to obtain the modeled makespan at each requested worker count. The
// modeled speedup is the headline number: CI hosts for this repo expose a
// single core, so the measured wall time of a worker pool cannot show the
// parallel win — the model (exact list scheduling of the real per-try
// costs in the real claim order) can, and stays reproducible across hosts.
// Each worker count is ALSO actually executed, and the report records that
// its result was bitwise identical to the sequential oracle — the
// scheduler's core guarantee.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/model"
)

// WorkerResult is the outcome at one worker count.
type WorkerResult struct {
	Workers int `json:"workers"`
	// ModeledMakespanSeconds is the pool makespan of the measured per-try
	// costs under the scheduler's promise-order claim discipline.
	ModeledMakespanSeconds float64 `json:"modeled_makespan_seconds"`
	// ModeledSpeedup is the 1-worker modeled makespan over this one.
	ModeledSpeedup float64 `json:"modeled_speedup"`
	// MeasuredWallSeconds is the real elapsed time of the actual run at
	// this worker count on this host (see HostCores).
	MeasuredWallSeconds float64 `json:"measured_wall_seconds"`
	// BitwiseIdentical records that the run's Tries, duplicate marks and
	// best-classification checkpoint bytes equal the sequential run's.
	BitwiseIdentical bool `json:"bitwise_identical"`
}

// Report is the BENCH_search.json schema.
type Report struct {
	N          int    `json:"n"`
	Seed       uint64 `json:"seed"`
	StartJList []int  `json:"start_j_list"`
	Tries      int    `json:"tries"`
	MaxCycles  int    `json:"max_cycles"`
	HostCores  int    `json:"host_cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// TrySeconds is every try's measured phase-time total, in schedule
	// order — the cost vector the makespan model schedules.
	TrySeconds            []float64      `json:"try_seconds"`
	SequentialWallSeconds float64        `json:"sequential_wall_seconds"`
	Workers               []WorkerResult `json:"workers"`
	Note                  string         `json:"note"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchsearch:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchsearch", flag.ContinueOnError)
	n := fs.Int("n", 4000, "paper-workload tuples")
	seed := fs.Uint64("seed", 1, "search seed")
	startJ := fs.String("start-j", "2,4,8,16,24,50,64", "comma-separated start_j_list")
	tries := fs.Int("tries", 2, "random restarts per start J")
	maxCycles := fs.Int("max-cycles", 50, "base_cycle cap per try")
	workersList := fs.String("workers", "1,2,4,8", "comma-separated worker counts to model and run")
	out := fs.String("o", "BENCH_search.json", "output path (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := autoclass.DefaultSearchConfig()
	cfg.Seed = *seed
	cfg.Tries = *tries
	cfg.EM.MaxCycles = *maxCycles
	var err error
	if cfg.StartJList, err = parseInts(*startJ); err != nil {
		return fmt.Errorf("-start-j: %w", err)
	}
	counts, err := parseInts(*workersList)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}

	ds, err := datagen.Paper(*n, 42)
	if err != nil {
		return err
	}
	spec := model.DefaultSpec(ds)
	pr := model.NewPriors(ds, ds.Summarize())
	view := ds.All()
	// The same native trial the sequential engine runs, with the per-try
	// EM phase seconds recorded by seed. Safe for concurrent use: every
	// call builds its own classification and engine over the shared view.
	var mu sync.Mutex
	tryCost := map[uint64]float64{}
	runner := func(startJ int, seed uint64) (*autoclass.Classification, autoclass.EMResult, error) {
		cls, err := autoclass.NewClassification(ds, spec, pr, startJ)
		if err != nil {
			return nil, autoclass.EMResult{}, err
		}
		eng, err := autoclass.NewEngine(view, cls, cfg.EM, nil, nil)
		if err != nil {
			return nil, autoclass.EMResult{}, err
		}
		if err := eng.InitRandom(seed); err != nil {
			return nil, autoclass.EMResult{}, err
		}
		em, err := eng.Run()
		if err != nil {
			return nil, autoclass.EMResult{}, err
		}
		mu.Lock()
		tryCost[seed] = em.WtsSeconds + em.ParamsSeconds + em.ApproxSeconds + em.InitSeconds
		mu.Unlock()
		return cls, em, nil
	}

	fmt.Fprintf(w, "benchsearch: n=%d start_j_list=%v tries=%d max_cycles=%d (%d variants)\n",
		*n, cfg.StartJList, cfg.Tries, cfg.EM.MaxCycles, len(cfg.Variants()))
	start := time.Now()
	ref, err := autoclass.SearchWith(runner, cfg)
	if err != nil {
		return err
	}
	seqWall := time.Since(start).Seconds()
	refBest, err := checkpointBytes(ref.Best)
	if err != nil {
		return err
	}

	variants := cfg.Variants()
	costs := make([]float64, len(variants))
	for i, v := range variants {
		costs[i] = tryCost[v.Seed]
	}
	order := claimOrder(cfg)
	base := makespan(costs, order, 1)

	rep := &Report{
		N: *n, Seed: *seed, StartJList: cfg.StartJList, Tries: cfg.Tries,
		MaxCycles: cfg.EM.MaxCycles, HostCores: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), TrySeconds: costs,
		SequentialWallSeconds: seqWall,
		Note: "modeled_speedup is the headline: exact list scheduling of the " +
			"measured per-try costs in the scheduler's promise claim order; " +
			"measured_wall_seconds depends on host_cores and is reported for " +
			"transparency only",
	}
	for _, wc := range counts {
		if wc < 1 {
			return fmt.Errorf("worker count %d < 1", wc)
		}
		ms := makespan(costs, order, wc)
		pcfg := cfg
		pcfg.SearchParallelism = wc
		runStart := time.Now()
		res, err := autoclass.SearchWith(runner, pcfg)
		if err != nil {
			return err
		}
		wall := time.Since(runStart).Seconds()
		resBest, err := checkpointBytes(res.Best)
		if err != nil {
			return err
		}
		wr := WorkerResult{
			Workers:                wc,
			ModeledMakespanSeconds: ms,
			ModeledSpeedup:         base / ms,
			MeasuredWallSeconds:    wall,
			BitwiseIdentical: sameTries(res.Tries, ref.Tries) &&
				res.BestTry == ref.BestTry && bytes.Equal(resBest, refBest),
		}
		rep.Workers = append(rep.Workers, wr)
		fmt.Fprintf(w, "workers=%d modeled makespan %.3fs (speedup %.2fx) wall %.3fs identical=%v\n",
			wc, wr.ModeledMakespanSeconds, wr.ModeledSpeedup, wr.MeasuredWallSeconds, wr.BitwiseIdentical)
	}

	var enc *json.Encoder
	if *out == "-" {
		enc = json.NewEncoder(w)
	} else {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", " ")
	return enc.Encode(rep)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// claimOrder replays the scheduler's promise heuristic: smaller start J
// first, earlier tries first. The returned slice holds schedule indices.
func claimOrder(cfg autoclass.SearchConfig) []int {
	vars := cfg.Variants()
	order := make([]int, len(vars))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := vars[order[a]], vars[order[b]]
		if va.StartJ != vb.StartJ {
			return va.StartJ < vb.StartJ
		}
		return va.Try < vb.Try
	})
	return order
}

// makespan list-schedules the per-try costs in claim order onto a pool of
// `workers`: each claimed try goes to the earliest-free worker, exactly as
// the live pool claims the next variant when a worker finishes.
func makespan(costs []float64, order []int, workers int) float64 {
	free := make([]float64, workers)
	for _, idx := range order {
		// Earliest-free worker claims next.
		w := 0
		for i := 1; i < workers; i++ {
			if free[i] < free[w] {
				w = i
			}
		}
		free[w] += costs[idx]
	}
	var end float64
	for _, t := range free {
		if t > end {
			end = t
		}
	}
	return end
}

func checkpointBytes(cls *autoclass.Classification) ([]byte, error) {
	var buf bytes.Buffer
	if err := (&autoclass.Checkpoint{Classification: cls}).Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sameTries(a, b []autoclass.TryResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
