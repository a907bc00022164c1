// Command pautoclass clusters a dataset with the P-AutoClass engine — the
// full BIG_LOOP model search over a list of starting class counts, run
// sequentially or across P in-process ranks connected by the message-
// passing substrate, optionally under the simulated Meiko CS-2 clock.
//
// The command is a pure consumer of the repro facade: every capability is
// reached through repro.Run's options (and repro.Checkpoint /
// repro.Predict for the no-search classify path).
//
// Usage:
//
//	pautoclass -data data.txt -procs 8 -start-j 2,4,8 -report
//	pautoclass -data big.bin -procs 10 -machine meiko -strategy full
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/logx"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pautoclass:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pautoclass", flag.ContinueOnError)
	dataPath := fs.String("data", "", "dataset path (required unless -chunked is given)")
	chunkedPath := fs.String("chunked", "", "train out of core from this chunk file instead of -data; the resident set is bounded by -memory-budget")
	memoryBudget := fs.String("memory-budget", "", "with -chunked: cap resident dataset bytes (e.g. 64MiB, 1GiB, or a plain byte count); empty memory-maps the file")
	procs := fs.Int("procs", 1, "number of ranks")
	startJ := fs.String("start-j", "2,4,8,16,24,50,64", "comma-separated start_j_list")
	tries := fs.Int("tries", 2, "random restarts per start J")
	maxCycles := fs.Int("max-cycles", 200, "base_cycle cap per try")
	parallelism := fs.Int("parallelism", 0, "intra-rank worker goroutines per base_cycle (0 or 1 = one worker, -1 = GOMAXPROCS; never changes the result)")
	searchParallelism := fs.Int("search-parallelism", 0, "concurrent BIG_LOOP variants (0/1 = one try at a time, -1 = GOMAXPROCS); with -procs P the rank budget splits into this many groups (P must be divisible); bitwise identical to the sequential order for every value")
	seed := fs.Uint64("seed", 1, "search seed")
	strategy := fs.String("strategy", "full", "parallel strategy: full or wtsonly")
	granularity := fs.String("granularity", "perterm", "statistics exchange: perterm or packed")
	machine := fs.String("machine", "none", "virtual machine model: none, meiko or pentium")
	correlated := fs.Bool("correlated", false, "model real attributes with a joint covariance term")
	models := fs.Bool("models", false, "run the model-level search over every applicable model form (sequential only)")
	resume := fs.String("resume", "", "search-state file for checkpointed/resumable search; at -procs 1 it runs the sequential engine")
	checkpointEvery := fs.Int("checkpoint-every", 8, "with -resume and -procs > 1: cycles between mid-try snapshots (0 = try boundaries only)")
	opTimeout := fs.Duration("op-timeout", 0, "per-operation transport deadline; a stalled rank errors out instead of hanging (0 = none)")
	cases := fs.String("cases", "", "write AutoClass-style case assignments of the best classification to this file")
	classify := fs.String("classify", "", "skip the search: load this classification checkpoint and classify the dataset")
	report := fs.Bool("report", false, "print the full class report")
	checkpoint := fs.String("checkpoint", "", "write the best classification to this JSON file")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event file (load in Perfetto) of the run to this path")
	eventsOut := fs.String("events-out", "", "write the raw trace events as JSON lines to this path")
	metricsOut := fs.String("metrics-out", "", "write per-rank metrics and the comm/compute breakdown as JSON to this path")
	phaseProfile := fs.Bool("phase-profile", false, "print the per-phase wall-time table (update_wts / update_parameters / update_approximations / initialization) of the search's totals; a resumed search includes its restored tries")
	pprofPrefix := fs.String("pprof", "", "write <prefix>.cpu.pprof and <prefix>.heap.pprof runtime profiles")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	logLevel := fs.String("log-level", "warn", "log level: debug, info, warn or error")
	progressMode := fs.String("progress", "auto", "live progress line on stderr: auto (when stderr is a terminal), on or off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := logx.New(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	showProgress := false
	switch *progressMode {
	case "on":
		showProgress = true
	case "off":
	case "auto":
		showProgress = isTerminal(os.Stderr)
	default:
		return fmt.Errorf("unknown -progress mode %q (want auto, on or off)", *progressMode)
	}
	var ds *repro.Dataset
	switch {
	case *chunkedPath != "" && *dataPath != "":
		return fmt.Errorf("-chunked replaces -data; give one or the other")
	case *chunkedPath != "":
		copts := repro.ChunkOptions{}
		if *memoryBudget != "" {
			budget, err := parseBytes(*memoryBudget)
			if err != nil {
				return fmt.Errorf("bad -memory-budget: %v", err)
			}
			copts.Mode = repro.ChunkCached
			copts.MemoryBudget = budget
		}
		cds, err := repro.OpenChunkedDataset(*chunkedPath, copts)
		if err != nil {
			return err
		}
		defer cds.Close()
		ds = cds
	case *dataPath == "":
		return fmt.Errorf("-data is required")
	default:
		var err error
		if ds, err = repro.LoadDataset(*dataPath); err != nil {
			return err
		}
	}
	if *memoryBudget != "" && *chunkedPath == "" {
		return fmt.Errorf("-memory-budget needs -chunked")
	}
	cfg := repro.DefaultSearchConfig()
	cfg.Seed = *seed
	cfg.Tries = *tries
	cfg.EM.MaxCycles = *maxCycles
	cfg.EM.Parallelism = *parallelism
	cfg.SearchParallelism = *searchParallelism
	cfg.StartJList = nil
	for _, tok := range strings.Split(*startJ, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("bad -start-j entry %q: %v", tok, err)
		}
		cfg.StartJList = append(cfg.StartJList, v)
	}
	var strat repro.Strategy
	switch *strategy {
	case "full":
		strat = repro.Full
	case "wtsonly":
		strat = repro.WtsOnly
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	switch *granularity {
	case "perterm":
		cfg.EM.Granularity = repro.PerTerm
	case "packed":
		cfg.EM.Granularity = repro.Packed
	default:
		return fmt.Errorf("unknown granularity %q", *granularity)
	}
	var mach *repro.Machine
	switch *machine {
	case "none":
	case "meiko":
		m := repro.MeikoCS2()
		mach = &m
	case "pentium":
		m := repro.PentiumPC()
		mach = &m
	default:
		return fmt.Errorf("unknown machine %q", *machine)
	}

	if *pprofPrefix != "" {
		cpuF, err := os.Create(*pprofPrefix + ".cpu.pprof")
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			cpuF.Close()
			heapF, err := os.Create(*pprofPrefix + ".heap.pprof")
			if err != nil {
				fmt.Fprintln(os.Stderr, "pautoclass: heap profile:", err)
				return
			}
			if err := pprof.WriteHeapProfile(heapF); err != nil {
				fmt.Fprintln(os.Stderr, "pautoclass: heap profile:", err)
			}
			heapF.Close()
		}()
	}

	if *classify != "" {
		return runClassify(w, ds, *classify, *cases)
	}
	if *models {
		return runModelSearch(w, ds, cfg, *report, *checkpoint)
	}
	// -correlated, and -resume at -procs 1, run on the sequential engine:
	// the engine whose state files -procs 1 -resume has always written.
	var sequential string
	switch {
	case *correlated:
		if *procs > 1 {
			return fmt.Errorf("-correlated runs on the sequential engine; drop -procs")
		}
		sequential = "-correlated"
	case *resume != "" && *procs == 1:
		sequential = "-resume at -procs 1"
	}
	if sequential != "" {
		if mach != nil {
			return fmt.Errorf("%s runs on the sequential engine; drop -machine", sequential)
		}
		if strat != repro.Full {
			return fmt.Errorf("%s runs on the sequential engine; drop -strategy %s", sequential, *strategy)
		}
	}

	fmt.Fprintf(w, "dataset %s: %d tuples, %d attributes\n", ds.Name, ds.N(), ds.NumAttrs())
	if sequential != "" {
		fmt.Fprintf(w, "search: start_j_list=%v tries=%d engine=sequential\n", cfg.StartJList, cfg.Tries)
	} else {
		fmt.Fprintf(w, "search: start_j_list=%v tries=%d procs=%d strategy=%s\n",
			cfg.StartJList, cfg.Tries, *procs, strat)
		// A variant group needs at least one rank, so the parallel engine
		// runs at most -procs groups.
		if v := cfg.SearchWorkers(); v > *procs {
			fmt.Fprintf(w, "note: -search-parallelism %d asks for %d variant groups; -procs %d runs %d at a time\n",
				*searchParallelism, v, *procs, *procs)
		}
	}
	switch {
	case *resume != "" && sequential != "":
		fmt.Fprintf(w, "resumable search: state in %s, committed after every try\n", *resume)
	case *resume != "":
		fmt.Fprintf(w, "resumable parallel search: state in %s, snapshot every %d cycles\n", *resume, *checkpointEvery)
	}

	// One observability session covers every in-process rank. Created only
	// when an output was requested so the default path stays on the nil
	// (no-op) hooks.
	var obsRun *repro.RunObserver
	if *traceOut != "" || *eventsOut != "" || *metricsOut != "" {
		obsRun = repro.NewRunObserver(*procs)
		if mach != nil {
			obsRun.SetMachineLabel(mach.Name)
		}
	}
	// The search observer fans out to the live progress line and, when an
	// observability session exists, rank 0's recorder (so -metrics-out
	// includes the search.* metrics). Events arrive once regardless of
	// -procs; the trajectory is bitwise identical either way.
	var printer *progressPrinter
	var searchObs []repro.SearchObserver
	if showProgress {
		printer = newProgressPrinter(os.Stderr)
		searchObs = append(searchObs, printer)
	}
	if obsRun != nil {
		searchObs = append(searchObs, obsRun.Rank(0))
	}

	opts := []repro.Option{repro.WithSearchConfig(cfg)}
	switch {
	case *correlated:
		opts = append(opts, repro.WithCorrelated())
	case sequential == "":
		opts = append(opts, repro.WithParallel(repro.ParallelConfig{
			Procs:      *procs,
			Strategy:   strat,
			Machine:    mach,
			OpDeadline: *opTimeout,
		}))
	}
	if obsRun != nil {
		opts = append(opts, repro.WithObserver(obsRun))
	}
	if *resume != "" {
		opts = append(opts, repro.WithCheckpoint(*resume, *checkpointEvery))
	}
	switch len(searchObs) {
	case 0:
	case 1:
		opts = append(opts, repro.WithSearchObserver(searchObs[0]))
	default:
		opts = append(opts, repro.WithSearchObserver(multiSearchObserver(searchObs)))
	}

	slog.Debug("search starting", "dataset", ds.Name, "tuples", ds.N(),
		"start_j_list", fmt.Sprint(cfg.StartJList), "tries", cfg.Tries, "procs", *procs)
	start := time.Now()
	r, err := repro.Run(ds, opts...)
	if printer != nil {
		printer.finish()
	}
	if err != nil {
		return err
	}
	best := r.Search
	wall := time.Since(start).Seconds()

	fmt.Fprintf(w, "\nbest classification: %d classes (start J %d, seed %d)\n",
		best.Best.J(), best.BestTry.StartJ, best.BestTry.Seed)
	fmt.Fprintf(w, "log likelihood=%.4f log posterior=%.4f score=%.4f cycles=%d converged=%v\n",
		best.Best.LogLik, best.Best.LogPost, best.Best.Score(), best.BestTry.Cycles, best.BestTry.Converged)
	dups := 0
	for _, tr := range best.Tries {
		if tr.Duplicate {
			dups++
		}
	}
	fmt.Fprintf(w, "tries: %d total, %d duplicates eliminated\n", len(best.Tries), dups)
	fmt.Fprintf(w, "wall time: %.2fs", wall)
	if mach != nil {
		fmt.Fprintf(w, "  virtual time on %s: %s", mach.Name, repro.FormatHMS(r.Stats.VirtualSeconds))
	}
	fmt.Fprintln(w)
	if *phaseProfile {
		fmt.Fprintln(w)
		fmt.Fprint(w, best.Totals.PhaseTable(len(best.Tries)))
	}
	if obsRun != nil {
		b := obsRun.Breakdown()
		fmt.Fprintln(w)
		fmt.Fprint(w, b.Table())
		if *traceOut != "" {
			if err := writeTo(*traceOut, obsRun.WriteChromeTrace); err != nil {
				return err
			}
			fmt.Fprintf(w, "chrome trace written to %s\n", *traceOut)
		}
		if *eventsOut != "" {
			if err := writeTo(*eventsOut, obsRun.WriteEventsJSONL); err != nil {
				return err
			}
			fmt.Fprintf(w, "trace events written to %s\n", *eventsOut)
		}
		if *metricsOut != "" {
			if err := writeTo(*metricsOut, obsRun.WriteMetricsJSON); err != nil {
				return err
			}
			fmt.Fprintf(w, "metrics written to %s\n", *metricsOut)
		}
	}
	if *report {
		fmt.Fprintln(w)
		if _, err := repro.BuildReport(best.Best, ds).WriteTo(w); err != nil {
			return err
		}
	}
	if *checkpoint != "" {
		if err := (&repro.Checkpoint{Classification: best.Best}).SaveFile(*checkpoint); err != nil {
			return err
		}
		fmt.Fprintf(w, "checkpoint written to %s\n", *checkpoint)
	}
	if *cases != "" {
		if err := writeCasesFile(*cases, best.Best, ds); err != nil {
			return err
		}
		fmt.Fprintf(w, "case assignments written to %s\n", *cases)
	}
	return nil
}

// parseBytes parses a byte count with an optional KB/MB/GB/KiB/MiB/GiB
// suffix (decimal and binary units respectively; case-insensitive).
func parseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1000}, {"MB", 1000 * 1000}, {"GB", 1000 * 1000 * 1000},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, u.suffix) {
			mult = u.mult
			t = strings.TrimSpace(t[:len(t)-len(u.suffix)])
			break
		}
	}
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a byte count", s)
	}
	if v <= 0 {
		return 0, fmt.Errorf("byte count %q must be positive", s)
	}
	return v * mult, nil
}

// writeTo creates path and streams write's output into it.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCasesFile writes the case assignments of cls over ds to path.
func writeCasesFile(path string, cls *repro.Classification, ds *repro.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := repro.WriteCases(f, cls, ds, 0.1); err != nil {
		return err
	}
	return f.Close()
}

// runClassify loads a checkpoint and classifies the dataset without
// searching — the batch inference path.
func runClassify(w io.Writer, ds *repro.Dataset, checkpointPath, casesPath string) error {
	var ck repro.Checkpoint
	if err := ck.LoadFile(checkpointPath, ds); err != nil {
		return err
	}
	cls := ck.Classification
	fmt.Fprintf(w, "classifying %d tuples with %d classes from %s\n", ds.N(), cls.J(), checkpointPath)
	sizes := repro.ClassSizes(cls, ds)
	fmt.Fprintf(w, "class sizes: %v\n", sizes)
	fmt.Fprintf(w, "mean max membership: %.4f\n", repro.MeanMaxMembership(cls, ds))
	if casesPath != "" {
		if err := writeCasesFile(casesPath, cls, ds); err != nil {
			return err
		}
		fmt.Fprintf(w, "case assignments written to %s\n", casesPath)
		return nil
	}
	return repro.WriteCases(w, cls, ds, 0.1)
}

// runModelSearch executes the two-level search (model forms × class counts)
// and reports every form's outcome plus the overall best.
func runModelSearch(w io.Writer, ds *repro.Dataset, cfg repro.SearchConfig, report bool, checkpoint string) error {
	fmt.Fprintf(w, "dataset %s: %d tuples, %d attributes\n", ds.Name, ds.N(), ds.NumAttrs())
	fmt.Fprintf(w, "model-level search over the standard model forms, start_j_list=%v\n\n", cfg.StartJList)
	r, err := repro.Run(ds, repro.WithSearchConfig(cfg), repro.WithModelSearch())
	if err != nil {
		return err
	}
	res := r.Models
	for _, ps := range res.PerSpec {
		fmt.Fprintf(w, "model %-12s: %2d classes  score %.4f  logpost %.4f\n",
			ps.Name, ps.Result.Best.J(), ps.Result.Best.Score(), ps.Result.Best.LogPost)
	}
	fmt.Fprintf(w, "\nbest model form: %s (%d classes)\n", res.BestSpec, res.Best.J())
	if report {
		fmt.Fprintln(w)
		if _, err := repro.BuildReport(res.Best, ds).WriteTo(w); err != nil {
			return err
		}
	}
	if checkpoint != "" {
		if err := (&repro.Checkpoint{Classification: res.Best}).SaveFile(checkpoint); err != nil {
			return err
		}
		fmt.Fprintf(w, "checkpoint written to %s\n", checkpoint)
	}
	return nil
}
