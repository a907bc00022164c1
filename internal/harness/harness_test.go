package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/autoclass"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pautoclass"
	"repro/internal/simnet"
)

// tinyOptions shrinks the experiments to unit-test scale while keeping the
// structure intact.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Search.StartJList = []int{4}
	o.Search.Tries = 1
	o.Search.EM.MaxCycles = 4
	o.Repeats = 1
	return o
}

func TestFig6SmallSweepShape(t *testing.T) {
	cfg := Fig6Config{
		Opts:  tinyOptions(),
		Sizes: []int{2000, 20000},
		Procs: []int{1, 2, 4, 8},
	}
	res, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seconds) != 2 || len(res.Seconds[0]) != 4 {
		t.Fatalf("result shape %dx%d", len(res.Seconds), len(res.Seconds[0]))
	}
	// Large dataset: time decreases monotonically over this P range.
	for pi := 1; pi < 4; pi++ {
		if res.Seconds[1][pi] >= res.Seconds[1][pi-1] {
			t.Fatalf("20k tuples: time not decreasing at P=%d: %v", cfg.Procs[pi], res.Seconds[1])
		}
	}
	// Speedup of the large dataset at max P must beat the small one's.
	if res.Speedup(1, 3) <= res.Speedup(0, 3) {
		t.Fatalf("speedup not growing with size: %v vs %v", res.Speedup(1, 3), res.Speedup(0, 3))
	}
	if bad := res.CheckShape(); len(bad) != 0 {
		t.Fatalf("shape violations: %v", bad)
	}
}

func TestFig6Tables(t *testing.T) {
	cfg := Fig6Config{Opts: tinyOptions(), Sizes: []int{1000}, Procs: []int{1, 2}}
	res, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "Fig 6") || !strings.Contains(tbl, "1000") {
		t.Fatalf("table:\n%s", tbl)
	}
	sp := res.SpeedupTable()
	if !strings.Contains(sp, "Fig 7") || !strings.Contains(sp, "linear") {
		t.Fatalf("speedup table:\n%s", sp)
	}
	// Speedup at P=1 is exactly 1.
	if res.Speedup(0, 0) != 1 {
		t.Fatalf("speedup at base P = %v", res.Speedup(0, 0))
	}
}

func TestFig6Validation(t *testing.T) {
	if _, err := RunFig6(Fig6Config{Opts: tinyOptions()}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	bad := tinyOptions()
	bad.Repeats = 0
	if _, err := RunFig6(Fig6Config{Opts: bad, Sizes: []int{10}, Procs: []int{1}}); err == nil {
		t.Fatal("bad repeats accepted")
	}
}

func TestFig8ScaleupFlat(t *testing.T) {
	// The paper's 10 000 tuples/processor matters: scaleup is only flat
	// when the per-rank compute dominates the log-P collective cost.
	cfg := Fig8Config{
		Opts:          tinyOptions(),
		TuplesPerProc: 10000,
		Procs:         []int{1, 2, 4, 8},
		Clusters:      []int{8, 16},
		Cycles:        2,
	}
	res, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := res.CheckShape(); len(bad) != 0 {
		t.Fatalf("shape violations: %v", bad)
	}
	// 16 clusters costs more than 8 at every P.
	for pi := range cfg.Procs {
		if res.SecondsPerCycle[1][pi] <= res.SecondsPerCycle[0][pi] {
			t.Fatalf("16 clusters not slower than 8 at P=%d", cfg.Procs[pi])
		}
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "Fig 8") || !strings.Contains(tbl, "base_cycle") {
		t.Fatalf("table:\n%s", tbl)
	}
}

func TestFig8Validation(t *testing.T) {
	cfg := DefaultFig8Config()
	cfg.TuplesPerProc = 0
	if _, err := RunFig8(cfg); err == nil {
		t.Fatal("zero tuples/proc accepted")
	}
}

func TestProfileMatchesPaperClaims(t *testing.T) {
	cfg := DefaultProfileConfig()
	// Keep each run quick but let initialization amortize: the 99.5%
	// share is a property of runs with enough cycles per try.
	cfg.N = 4000
	cfg.Search.EM.MaxCycles = 40
	// The claims are checked on the wall and phase times summed over five
	// runs. A single run lasts about 0.3 s, and its base_cycle share sits
	// about a percent above the bound, so one scheduler stall of a few
	// milliseconds outside base_cycle on a loaded host could sink it.
	var sum ProfileResult
	var res *ProfileResult
	for i := 0; i < 5; i++ {
		var err error
		if res, err = RunProfile(cfg); err != nil {
			t.Fatal(err)
		}
		sum.TotalSeconds += res.TotalSeconds
		sum.WtsSeconds += res.WtsSeconds
		sum.ParamsSeconds += res.ParamsSeconds
		sum.ApproxSeconds += res.ApproxSeconds
	}
	t.Logf("base_cycle share %.4f of %.3f s", sum.BaseCycleShare(), sum.TotalSeconds)
	if bad := sum.CheckShape(); len(bad) != 0 {
		t.Fatalf("profile violations: %v (wts=%.3f params=%.3f approx=%.3f total=%.3f)",
			bad, sum.WtsSeconds, sum.ParamsSeconds, sum.ApproxSeconds, sum.TotalSeconds)
	}
	tbl := res.Table()
	for _, want := range []string{"update_wts", "update_parameters", "99.5%"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("profile table missing %q:\n%s", want, tbl)
		}
	}
}

func TestProfileValidation(t *testing.T) {
	cfg := DefaultProfileConfig()
	cfg.N = 0
	if _, err := RunProfile(cfg); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestSeqAnchorLinear(t *testing.T) {
	cfg := DefaultSeqAnchorConfig()
	cfg.Sizes = []int{2000, 4000, 8000}
	cfg.Search.EM.MaxCycles = 5
	res, err := RunSeqAnchor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := res.CheckShape(); len(bad) != 0 {
		t.Fatalf("linearity violations: %v (seconds=%v)", bad, res.Seconds)
	}
	// Doubling the data roughly doubles the time.
	ratio := res.Seconds[1] / res.Seconds[0]
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("2x data gave %vx time", ratio)
	}
	if !strings.Contains(res.Table(), "Pentium") {
		t.Fatalf("table:\n%s", res.Table())
	}
}

func TestAblationShape(t *testing.T) {
	cfg := AblationConfig{
		Opts:  tinyOptions(),
		N:     8000,
		Procs: []int{1, 4, 8},
	}
	res, err := RunAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := res.CheckShape(); len(bad) != 0 {
		t.Fatalf("ablation violations: %v\nfull=%v wtsonly=%v one-exchange=%v",
			bad, res.Full, res.WtsOnly, res.OneExchange)
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "wts-only") || !strings.Contains(tbl, "one exchange") {
		t.Fatalf("table:\n%s", tbl)
	}
}

func TestAblationValidation(t *testing.T) {
	cfg := DefaultAblationConfig()
	cfg.N = 0
	if _, err := RunAblation(cfg); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestElapsedParallelStrategies(t *testing.T) {
	ds, err := paperDataset(3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOptions()
	for _, strat := range []pautoclass.Strategy{pautoclass.Full, pautoclass.WtsOnly} {
		opts.Strategy = strat
		e, comm, err := elapsedParallel(ds, 4, opts, 1)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if e <= 0 || comm <= 0 || comm >= e {
			t.Fatalf("%v: elapsed=%v comm=%v", strat, e, comm)
		}
	}
}

func TestFormatTableAlignment(t *testing.T) {
	tbl := formatTable([]string{"a", "long-header"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimRight(tbl, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines: %v", lines)
	}
	for _, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Fatalf("misaligned table:\n%s", tbl)
		}
	}
}

func TestDefaultConfigsAreValid(t *testing.T) {
	if err := DefaultOptions().validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultFig6Config().Procs[len(DefaultFig6Config().Procs)-1] != 10 {
		t.Fatal("fig6 should sweep to 10 processors as in the paper")
	}
	f8 := DefaultFig8Config()
	if f8.TuplesPerProc != 10000 || len(f8.Clusters) != 2 {
		t.Fatalf("fig8 defaults %+v", f8)
	}
	if DefaultSeqAnchorConfig().Machine.Name != simnet.PentiumPC().Name {
		t.Fatal("seq anchor should use the Pentium model")
	}
	if DefaultProfileConfig().N != 14000 {
		t.Fatal("profile should use the paper's 14K anchor")
	}
}

func TestFixedCycleProtocol(t *testing.T) {
	// With RelDelta=0 every try must run exactly MaxCycles cycles, making
	// the workload identical across P.
	opts := tinyOptions()
	ds, err := paperDataset(500, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.Search
	res, err := autoclass.Search(ds, model.DefaultSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tries {
		if tr.Cycles != cfg.EM.MaxCycles {
			t.Fatalf("try ran %d cycles, want exactly %d", tr.Cycles, cfg.EM.MaxCycles)
		}
		if tr.Converged {
			t.Fatal("fixed-cycle run reported convergence")
		}
	}
}

func TestAlgoAblationShape(t *testing.T) {
	cfg := AlgoConfig{
		Opts:     tinyOptions(),
		N:        8000,
		Procs:    []int{2, 4, 8},
		Machines: []simnet.Machine{simnet.MeikoCS2(), simnet.PCCluster()},
	}
	res, err := RunAlgo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := res.CheckShape(); len(bad) != 0 {
		t.Fatalf("algo ablation violations: %v\nseconds=%v", bad, res.Seconds)
	}
	tbl := res.Table()
	for _, want := range []string{"reduce-bcast", "recursive-doubling", "ring", "PC cluster"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestAlgoAblationValidation(t *testing.T) {
	cfg := DefaultAlgoConfig()
	cfg.Machines = nil
	if _, err := RunAlgo(cfg); err == nil {
		t.Fatal("no machines accepted")
	}
}

func TestAlgoChangesOnlyTheClockNotTheResult(t *testing.T) {
	// The collective algorithm is a setting of the simulated clock: it
	// changes the virtual time, never the classification, because the
	// runtime sends the same reduce+broadcast under every algorithm.
	ds, err := paperDataset(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOptions()
	cfg := opts.Search
	type result struct{ post, elapsed float64 }
	results := map[simnet.AllreduceAlgo]result{}
	for _, algo := range algoList {
		var r result
		err := mpi.Run(4, func(c *mpi.Comm) error {
			clk := simnet.MustNewClock(opts.Machine)
			clk.SetAllreduceAlgo(algo)
			po := pautoclass.Options{EM: cfg.EM, Strategy: opts.Strategy, Clock: clk}
			res, err := pautoclass.Search(c, ds, model.DefaultSpec(ds), cfg, po)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				r = result{post: res.Best.LogPost, elapsed: clk.Elapsed()}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		results[algo] = r
	}
	base := results[simnet.ReduceBcast]
	for _, algo := range []simnet.AllreduceAlgo{simnet.RecursiveDoubling, simnet.Ring} {
		r := results[algo]
		if math.Float64bits(r.post) != math.Float64bits(base.post) {
			t.Fatalf("algo %v changed the classification: LogPost %v vs %v", algo, r.post, base.post)
		}
		if r.elapsed == base.elapsed {
			t.Fatalf("algo %v charged reduce-bcast's virtual time, %v s", algo, r.elapsed)
		}
	}
}

func TestPortabilityShape(t *testing.T) {
	cfg := PortabilityConfig{
		Opts:  tinyOptions(),
		N:     20000,
		Procs: []int{1, 4, 8},
		Machines: []simnet.Machine{
			simnet.MeikoCS2(),
			simnet.PCCluster(),
			simnet.EthernetHubCluster(),
		},
	}
	res, err := RunPortability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := res.CheckShape(); len(bad) != 0 {
		t.Fatalf("portability violations: %v\nseconds=%v", bad, res.Seconds)
	}
	if !strings.Contains(res.Table(), "speedup") {
		t.Fatalf("table:\n%s", res.Table())
	}
}

func TestPortabilityValidation(t *testing.T) {
	cfg := DefaultPortabilityConfig()
	cfg.Procs = nil
	if _, err := RunPortability(cfg); err == nil {
		t.Fatal("empty procs accepted")
	}
}

func TestChartsRender(t *testing.T) {
	f6 := &Fig6Result{
		Sizes:   []int{5000, 100000},
		Procs:   []int{1, 2, 4, 8},
		Seconds: [][]float64{{10, 6, 4, 3.5}, {100, 51, 26, 14}},
	}
	for name, render := range map[string]func() (string, error){
		"speedup": f6.SpeedupChart,
		"elapsed": f6.ElapsedChart,
	} {
		out, err := render()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "tuples") || !strings.Contains(out, "processors") {
			t.Fatalf("%s chart:\n%s", name, out)
		}
	}
	f8 := &Fig8Result{
		Procs:           []int{1, 4, 8},
		Clusters:        []int{8, 16},
		SecondsPerCycle: [][]float64{{0.33, 0.35, 0.36}, {0.67, 0.70, 0.73}},
	}
	out, err := f8.Chart()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "clusters") {
		t.Fatalf("fig8 chart:\n%s", out)
	}
	port := &PortabilityResult{
		Procs:    []int{1, 4, 8},
		Machines: []string{"a", "b"},
		Seconds:  [][]float64{{10, 3, 2}, {10, 5, 4}},
	}
	out, err = port.Chart()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "platform") {
		t.Fatalf("portability chart:\n%s", out)
	}
}

func TestWriteTSVFormats(t *testing.T) {
	f6 := &Fig6Result{Sizes: []int{5000}, Procs: []int{1, 2}, Seconds: [][]float64{{10, 5.5}}}
	f8 := &Fig8Result{Procs: []int{1, 2}, Clusters: []int{8}, SecondsPerCycle: [][]float64{{0.33, 0.34}}}
	prof := &ProfileResult{TotalSeconds: 1, WtsSeconds: 0.8, ParamsSeconds: 0.15, ApproxSeconds: 0.01, InitSeconds: 0.02}
	seq := &SeqAnchorResult{Sizes: []int{14000}, Seconds: []float64{6}}
	abl := &AblationResult{Procs: []int{2}, Full: []float64{1}, WtsOnly: []float64{2}, OneExchange: []float64{0.9}}
	algo := &AlgoResult{Procs: []int{2}, Machines: []string{"m"}, Algos: algoList,
		Seconds: [][][]float64{{{1}, {0.9}, {1.2}}}}
	port := &PortabilityResult{Procs: []int{1, 2}, Machines: []string{"m"}, Seconds: [][]float64{{4, 2}}}
	cases := map[string]struct {
		write  func(w *strings.Builder) error
		header string
		rows   int
	}{
		"fig6": {func(w *strings.Builder) error { return f6.WriteTSV(w) }, "tuples\tprocs\tseconds\tspeedup", 2},
		"fig8": {func(w *strings.Builder) error { return f8.WriteTSV(w) }, "clusters\tprocs\tseconds_per_cycle", 2},
		"prof": {func(w *strings.Builder) error { return prof.WriteTSV(w) }, "phase\tseconds\tshare", 4},
		"seq":  {func(w *strings.Builder) error { return seq.WriteTSV(w) }, "tuples\tseconds", 1},
		"abl":  {func(w *strings.Builder) error { return abl.WriteTSV(w) }, "procs\tstrategy\tseconds", 3},
		"algo": {func(w *strings.Builder) error { return algo.WriteTSV(w) }, "machine\talgorithm\tprocs\tseconds", 3},
		"port": {func(w *strings.Builder) error { return port.WriteTSV(w) }, "machine\tprocs\tseconds\tspeedup", 2},
	}
	for name, tc := range cases {
		var sb strings.Builder
		if err := tc.write(&sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		if lines[0] != tc.header {
			t.Fatalf("%s header %q, want %q", name, lines[0], tc.header)
		}
		if len(lines)-1 != tc.rows {
			t.Fatalf("%s rows %d, want %d", name, len(lines)-1, tc.rows)
		}
		for _, l := range lines[1:] {
			if strings.Count(l, "\t") != strings.Count(tc.header, "\t") {
				t.Fatalf("%s ragged row %q", name, l)
			}
		}
	}
}
