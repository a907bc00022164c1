// Command benchfigs regenerates every table and figure of the paper's
// evaluation (DESIGN.md experiment index): Fig. 6 elapsed times, Fig. 7
// speedup, Fig. 8 scaleup, the §3.1 profile table, the §3 sequential-time
// anchor, the §5 strategy ablation, the collective-algorithm ablation, and
// the portability study. Each experiment prints its table (and, for the
// figures, an ASCII rendering of the curves) plus the result of its
// qualitative shape checks.
//
// Usage:
//
//	benchfigs -fig all            # everything, full sweeps (minutes)
//	benchfigs -fig 6 -quick       # one figure, reduced sweep (seconds)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchfigs:", err)
		os.Exit(1)
	}
}

type experiment struct {
	id  string
	run func(quick bool, w io.Writer) error
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchfigs", flag.ContinueOnError)
	fig := fs.String("fig", "all", "experiment: 6, 7, 8, profile, seq, ablation, algo, portability or all")
	quick := fs.Bool("quick", false, "reduced sweeps for a fast smoke run")
	tsvDir := fs.String("tsv", "", "also write each experiment's series as TSV files into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tsvDir != "" {
		if err := os.MkdirAll(*tsvDir, 0o755); err != nil {
			return err
		}
	}
	tsv = *tsvDir
	experiments := []experiment{
		{"6", runFig67}, // Fig 7 derives from Fig 6's runs
		{"8", runFig8},
		{"profile", runProfile},
		{"seq", runSeq},
		{"ablation", runAblation},
		{"algo", runAlgo},
		{"portability", runPortability},
	}
	want := *fig
	if want == "7" {
		want = "6"
	}
	ran := false
	for _, ex := range experiments {
		if want != "all" && want != ex.id {
			continue
		}
		ran = true
		start := time.Now()
		if err := ex.run(*quick, w); err != nil {
			return fmt.Errorf("experiment %s: %w", ex.id, err)
		}
		fmt.Fprintf(w, "[experiment %s regenerated in %.1fs]\n\n", ex.id, time.Since(start).Seconds())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *fig)
	}
	return nil
}

// tsv is the optional output directory for machine-readable series.
var tsv string

// tsvWriter is implemented by every harness result.
type tsvWriter interface {
	WriteTSV(w io.Writer) error
}

// saveTSV writes one experiment's series when -tsv is set.
func saveTSV(name string, r tsvWriter) error {
	if tsv == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(tsv, name+".tsv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.WriteTSV(f); err != nil {
		return err
	}
	return f.Close()
}

func printChecks(w io.Writer, bad []string) {
	if len(bad) == 0 {
		fmt.Fprintln(w, "shape checks: all passed")
		return
	}
	fmt.Fprintln(w, "shape checks FAILED:")
	for _, b := range bad {
		fmt.Fprintln(w, "  -", b)
	}
}

func runFig67(quick bool, w io.Writer) error {
	cfg := harness.DefaultFig6Config()
	if quick {
		cfg.Sizes = []int{5000, 20000, 100000}
		cfg.Procs = []int{1, 2, 4, 8, 10}
		cfg.Opts.Repeats = 1
	}
	res, err := harness.RunFig6(cfg)
	if err != nil {
		return err
	}
	if err := saveTSV("fig6_7", res); err != nil {
		return err
	}
	fmt.Fprintln(w, res.Table())
	fmt.Fprintln(w, res.SpeedupTable())
	if chart, err := res.SpeedupChart(); err == nil {
		fmt.Fprintln(w, chart)
	}
	for si, n := range res.Sizes {
		fmt.Fprintf(w, "size %6d: optimal P = %d, speedup at max P = %.2f\n",
			n, res.OptimalProcs(si), res.Speedup(si, len(res.Procs)-1))
	}
	printChecks(w, res.CheckShape())
	fmt.Fprintln(w)
	return nil
}

func runFig8(quick bool, w io.Writer) error {
	cfg := harness.DefaultFig8Config()
	if quick {
		cfg.Procs = []int{1, 2, 4, 8, 10}
		cfg.Cycles = 3
		cfg.Opts.Repeats = 1
	}
	res, err := harness.RunFig8(cfg)
	if err != nil {
		return err
	}
	if err := saveTSV("fig8", res); err != nil {
		return err
	}
	fmt.Fprintln(w, res.Table())
	if chart, err := res.Chart(); err == nil {
		fmt.Fprintln(w, chart)
	}
	for ci, j := range res.Clusters {
		fmt.Fprintf(w, "clusters %2d: T(maxP)/T(minP) = %.3f\n", j, res.ScaleupRatio(ci))
	}
	printChecks(w, res.CheckShape())
	fmt.Fprintln(w)
	return nil
}

func runProfile(quick bool, w io.Writer) error {
	cfg := harness.DefaultProfileConfig()
	if quick {
		cfg.N = 4000
		cfg.Search.EM.MaxCycles = 40
	}
	res, err := harness.RunProfile(cfg)
	if err != nil {
		return err
	}
	if err := saveTSV("profile", res); err != nil {
		return err
	}
	fmt.Fprintln(w, res.Table())
	printChecks(w, res.CheckShape())
	fmt.Fprintln(w)
	return nil
}

func runSeq(quick bool, w io.Writer) error {
	cfg := harness.DefaultSeqAnchorConfig()
	if quick {
		cfg.Sizes = []int{14000, 56000, 140000}
	}
	res, err := harness.RunSeqAnchor(cfg)
	if err != nil {
		return err
	}
	if err := saveTSV("seq_anchor", res); err != nil {
		return err
	}
	fmt.Fprintln(w, res.Table())
	printChecks(w, res.CheckShape())
	fmt.Fprintln(w)
	return nil
}

func runAlgo(quick bool, w io.Writer) error {
	cfg := harness.DefaultAlgoConfig()
	if quick {
		cfg.N = 10000
		cfg.Procs = []int{2, 8}
		cfg.Opts.Repeats = 1
	}
	res, err := harness.RunAlgo(cfg)
	if err != nil {
		return err
	}
	if err := saveTSV("algo", res); err != nil {
		return err
	}
	fmt.Fprintln(w, res.Table())
	printChecks(w, res.CheckShape())
	fmt.Fprintln(w)
	return nil
}

func runPortability(quick bool, w io.Writer) error {
	cfg := harness.DefaultPortabilityConfig()
	if quick {
		cfg.N = 10000
		cfg.Procs = []int{1, 4, 10}
		cfg.Opts.Repeats = 1
	}
	res, err := harness.RunPortability(cfg)
	if err != nil {
		return err
	}
	if err := saveTSV("portability", res); err != nil {
		return err
	}
	fmt.Fprintln(w, res.Table())
	if chart, err := res.Chart(); err == nil {
		fmt.Fprintln(w, chart)
	}
	printChecks(w, res.CheckShape())
	fmt.Fprintln(w)
	return nil
}

func runAblation(quick bool, w io.Writer) error {
	cfg := harness.DefaultAblationConfig()
	if quick {
		cfg.N = 20000
		cfg.Procs = []int{1, 4, 10}
		cfg.Opts.Repeats = 1
	}
	res, err := harness.RunAblation(cfg)
	if err != nil {
		return err
	}
	if err := saveTSV("ablation", res); err != nil {
		return err
	}
	fmt.Fprintln(w, res.Table())
	printChecks(w, res.CheckShape())
	fmt.Fprintln(w)
	return nil
}
