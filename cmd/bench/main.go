// Command bench is the repository's one benchmark. It times the two paths
// P-AutoClass users take end to end — training (CSV or chunk file →
// priors → BIG_LOOP → best model) and serving (HTTP decode → queue → batch
// → kernels → Allgather → encode) — on four named workloads, checks every
// output, and, with -trace, times every layer from outside around calls to
// that layer's public functions.
//
//	bash cmd/bench/run.sh --workload train-paper --seed 1 --seconds 25 --trace 0
//	cd cmd/bench && go run . -workload train-ooc,serve-hot -runs 3
//
// Each workload runs in a re-executed child process, so peak RSS and heap
// are the workload's own, under a wall-time cap of childCap. The last line
// of standard output is one JSON object {correct, attempted, failed,
// metrics}; the lines before it are one record per run carrying
// provenance, parameters and sample statistics. The exit code is nonzero
// when any self-check fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings shared by parent and child.
type options struct {
	workloads []string
	seed      uint64
	seconds   float64
	trace     bool
	quick     bool
	runs      int
	commit    string
	workdir   string
	traceOut  string
	child     bool
}

// childCap is the wall-time cap of one workload child; a child that hits it
// is killed and counts as one failed operation. It leaves room below the
// 180 s a run may take in all.
const childCap = 170 * time.Second

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	list := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := fs.String("trace", "0", "1 runs the traced per-layer measurement")
	fs.BoolVar(&o.quick, "quick", false, "small sizes, for tests")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, all on -seed; >1 prints medians, quartiles and spread")
	fs.StringVar(&o.commit, "commit", "", "commit to record (default: the build's vcs.revision)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for run files, removed per run")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome-trace span file (default: <workdir>/trace-<workload>.json)")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch *traceFlag {
	case "0", "false":
	case "1", "true":
		o.trace = true
	default:
		return o, fmt.Errorf("-trace %q: want 0 or 1", *traceFlag)
	}
	if *list == "" {
		for _, w := range allWorkloads {
			o.workloads = append(o.workloads, w.name)
		}
	} else {
		for _, name := range strings.Split(*list, ",") {
			if workloadByName(name) == nil {
				return o, fmt.Errorf("unknown workload %q", name)
			}
			o.workloads = append(o.workloads, name)
		}
	}
	if o.seconds <= 0 || o.runs < 1 {
		return o, errors.New("-seconds and -runs must be positive")
	}
	if o.child && len(o.workloads) != 1 {
		return o, errors.New("-child runs exactly one workload")
	}
	if o.commit == "" {
		o.commit = buildCommit()
	}
	return o, nil
}

func mainErr(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.child {
		rec, err := runChild(o)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(rec)
	}
	return runParent(o, stdout)
}

// record is one run's output line.
type record struct {
	Record     string            `json:"record"`
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Commit     string            `json:"commit"`
	Host       string            `json:"host"`
	Nproc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Quick      bool              `json:"quick"`
	Params     any               `json:"params"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Errors     []string          `json:"errors,omitempty"`
	Metrics    map[string]valued `json:"metrics"`
	Stats      map[string]stat   `json:"stats,omitempty"`
	Probed     []string          `json:"probed,omitempty"`
	TraceFile  string            `json:"trace_file,omitempty"`
	Elapsed    float64           `json:"elapsed_s"`
}

// valued is one metric as printed.
type valued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back to runChild.
type outcome struct {
	m         metrics
	stats     map[string]stat
	attempted int
	failed    int
	errs      []string
	probed    []string
	traceFile string
}

func newOutcome() *outcome {
	return &outcome{m: metrics{}, stats: map[string]stat{}}
}

// check counts one self-checked operation, recording the failure reason.
func (out *outcome) check(ok bool, format string, args ...any) {
	out.attempted++
	if !ok {
		out.fail(format, args...)
	}
}

// probe runs one probe (see probe.go) and records the metrics it filled,
// so the record tells a probe's values from the workload's own.
func (out *outcome) probe(f func() error) error {
	had := make(map[string]bool, len(out.m))
	for k := range out.m {
		had[k] = true
	}
	err := f()
	for k := range out.m {
		if !had[k] {
			out.probed = append(out.probed, k)
		}
	}
	sort.Strings(out.probed)
	return err
}

// fail records a failed operation already counted as attempted.
func (out *outcome) fail(format string, args ...any) {
	out.failed++
	if len(out.errs) < 20 {
		out.errs = append(out.errs, fmt.Sprintf(format, args...))
	}
}

func runChild(o options) (*record, error) {
	w := workloadByName(o.workloads[0])
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	traceOut := o.traceOut
	if o.trace && traceOut == "" {
		traceOut = fmt.Sprintf("%s/trace-%s.json", o.workdir, w.name)
	}
	rc := &runCtx{seed: o.seed, seconds: o.seconds, trace: o.trace, quick: o.quick,
		dir: dir, traceOut: traceOut}
	start := time.Now()
	out, err := w.run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := newRecord(o, w, rc)
	rec.Elapsed = time.Since(start).Seconds()
	rec.Attempted, rec.Failed, rec.Errors = out.attempted, out.failed, out.errs
	rec.Stats, rec.Probed = out.stats, out.probed
	rec.TraceFile = out.traceFile
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	for _, sp := range specs {
		v, ok := out.m[sp.Name]
		if !ok {
			// peak_rss_mib is filled in by the parent from the child's
			// rusage; anything else missing is a bug.
			if sp.Name == "peak_rss_mib" {
				continue
			}
			return nil, fmt.Errorf("%s: metric %s not measured", w.name, sp.Name)
		}
		rec.Metrics[sp.Name] = valued{Value: v, Unit: sp.Unit}
	}
	return rec, nil
}

func newRecord(o options, w *workload, rc *runCtx) *record {
	host, _ := os.Hostname()
	return &record{
		Record: "bench", Workload: w.name, Why: w.why, Commit: o.commit, Host: host,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace, Quick: rc.quick,
		Params: w.params(rc.quick), Metrics: map[string]valued{},
	}
}

// runParent re-executes this binary once per (workload, run), enforces the
// wall-time cap, adds the child's peak RSS, and prints the records and the
// final summary line. The runs of one repeat set share the seed, so their
// spread is the measurement's own; comparing across seeds is done by
// calling the command once per seed.
func runParent(o options, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]valued `json:"metrics"`
	}{Correct: true, Metrics: map[string]valued{}}
	enc := json.NewEncoder(stdout)
	for _, name := range o.workloads {
		var recs []*record
		for i := 0; i < o.runs; i++ {
			rec, err := runOne(exe, o, name)
			if err != nil {
				// A child that crashed, timed out or failed to report counts
				// as one failed operation of its workload.
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, o.seed, err)
				rec = &record{Record: "bench", Workload: name, Seed: o.seed, Commit: o.commit,
					Attempted: 1, Failed: 1, Errors: []string{err.Error()}}
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
			recs = append(recs, rec)
			final.Attempted += rec.Attempted
			final.Failed += rec.Failed
			if !rec.Correct {
				final.Correct = false
			}
		}
		if o.runs > 1 {
			if err := enc.Encode(summarize(name, recs, o.trace)); err != nil {
				return err
			}
		}
		for mname, v := range medianMetrics(recs) {
			key := mname
			if len(o.workloads) > 1 {
				key = name + "/" + mname
			}
			final.Metrics[key] = v
		}
	}
	if final.Attempted < 1 {
		final.Attempted = 1
	}
	if err := enc.Encode(final); err != nil {
		return err
	}
	if !final.Correct {
		return errors.New("self-checks failed")
	}
	return nil
}

// runOne runs one workload in a child process under the wall-time cap.
func runOne(exe string, o options, name string) (*record, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childCap)
	defer cancel()
	cargs := []string{"-child", "-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[o.trace],
		"-commit", o.commit, "-workdir", o.workdir}
	if o.quick {
		cargs = append(cargs, "-quick")
	}
	if o.traceOut != "" {
		cargs = append(cargs, "-trace-out", o.traceOut)
	}
	cmd := exec.CommandContext(ctx, exe, cargs...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("exceeded the %v wall-time cap", childCap)
	}
	if runErr != nil {
		return nil, runErr
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	rec.Correct = rec.Failed == 0
	if !o.trace {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			// Linux reports Maxrss in KiB.
			rec.Metrics["peak_rss_mib"] = valued{Value: float64(ru.Maxrss) / 1024, Unit: "MiB"}
		}
	}
	return &rec, nil
}

// medianMetrics folds several runs of one workload into one value per
// metric (the median); a single run passes through unchanged.
func medianMetrics(recs []*record) map[string]valued {
	vals := map[string]sample{}
	units := map[string]string{}
	for _, r := range recs {
		for k, v := range r.Metrics {
			vals[k] = append(vals[k], v.Value)
			units[k] = v.Unit
		}
	}
	out := map[string]valued{}
	for k, s := range vals {
		out[k] = valued{Value: s.median(), Unit: units[k]}
	}
	return out
}

// spread is one metric's repeat-mode summary: median, quartiles, and the
// interquartile range as a share of the median against the metric's bound.
type spread struct {
	Median float64  `json:"median"`
	Q1     float64  `json:"q1"`
	Q3     float64  `json:"q3"`
	Spread float64  `json:"spread"`
	Bound  *float64 `json:"bound,omitempty"`
	Fits   *bool    `json:"fits,omitempty"`
}

func summarize(name string, recs []*record, trace bool) any {
	vals := map[string]sample{}
	for _, r := range recs {
		for k, v := range r.Metrics {
			vals[k] = append(vals[k], v.Value)
		}
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	out := map[string]spread{}
	for _, k := range names {
		s := vals[k]
		q1, med, q3 := quartiles(s)
		sp := spread{Median: med, Q1: q1, Q3: q3, Spread: (q3 - q1) / abs(med)}
		if b, ok := bounds[k]; ok && !trace {
			b := b
			fits := sp.Spread <= b
			sp.Bound, sp.Fits = &b, &fits
		}
		out[k] = sp
	}
	return map[string]any{"record": "spread", "workload": name, "runs": len(recs), "metrics": out}
}

// bounds are the regression bounds BENCHMARK.json gives the end-to-end
// metrics, as shares of the parent's median.
var bounds = map[string]float64{
	"setup_s": 0.25, "train_s": 0.25, "heldout_nll_per_row": 0.1, "peak_rss_mib": 0.25,
	"p50_ms": 0.25, "throughput_per_s": 0.25,
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is how the spread of a metric is judged.
func quartiles(s sample) (q1, med, q3 float64) {
	x := append(sample(nil), s...)
	sort.Float64s(x)
	n := len(x)
	if n == 1 {
		return x[0], x[0], x[0]
	}
	at := func(p float64) float64 {
		m := float64(n+1) * p
		j := int(m)
		if j < 1 {
			return x[0]
		}
		if j >= n {
			return x[n-1]
		}
		return x[j-1] + (m-float64(j))*(x[j]-x[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// buildCommit reads the VCS revision stamped into the binary, if any.
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}
