package pautoclass

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/stats"
)

func paperDS(t testing.TB, n int) *dataset.Dataset {
	t.Helper()
	ds, err := datagen.Paper(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// runParallelSearch executes a parallel search over p in-process ranks and
// returns rank 0's result.
func runParallelSearch(t testing.TB, ds *dataset.Dataset, p int, cfg autoclass.SearchConfig, opts Options) *autoclass.SearchResult {
	t.Helper()
	return runParallelSearchSpec(t, ds, model.DefaultSpec(ds), p, cfg, opts)
}

// runParallelSearchSpec is runParallelSearch under the given model spec.
func runParallelSearchSpec(t testing.TB, ds *dataset.Dataset, spec model.Spec, p int, cfg autoclass.SearchConfig, opts Options) *autoclass.SearchResult {
	t.Helper()
	var mu sync.Mutex
	var out *autoclass.SearchResult
	err := mpi.Run(p, func(c *mpi.Comm) error {
		res, err := Search(c, ds, spec, cfg, opts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			out = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rankErrors runs fn under mpi.RunWith and returns every rank's own error
// (index = rank) beside RunWith's first failure.
func rankErrors(p int, cfg mpi.RunConfig, fn func(c *mpi.Comm) error) ([]error, error) {
	errs := make([]error, p)
	err := mpi.RunWith(p, cfg, func(c *mpi.Comm) error {
		errs[c.Rank()] = fn(c)
		return errs[c.Rank()]
	})
	return errs, err
}

func quickSearchConfig() autoclass.SearchConfig {
	cfg := autoclass.DefaultSearchConfig()
	cfg.StartJList = []int{2, 5}
	cfg.Tries = 1
	cfg.EM.MaxCycles = 40
	return cfg
}

func TestParallelPriorsMatchSequential(t *testing.T) {
	ds := paperDS(t, 1000)
	if _, err := datagen.InjectMissing(ds, 0.05, 7); err != nil {
		t.Fatal(err)
	}
	seq := model.NewPriors(ds, ds.Summarize())
	for _, p := range []int{1, 2, 3, 7} {
		results := make([]*model.Priors, p)
		err := mpi.Run(p, func(c *mpi.Comm) error {
			view, err := PartitionView(c, ds)
			if err != nil {
				return err
			}
			pr, err := ParallelPriors(c, view, nil)
			if err != nil {
				return err
			}
			results[c.Rank()] = pr
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for r, pr := range results {
			if pr.N != seq.N {
				t.Fatalf("p=%d rank %d: N=%d want %d", p, r, pr.N, seq.N)
			}
			for k := range seq.Mean {
				if !stats.AlmostEqual(pr.Mean[k], seq.Mean[k], 1e-9) {
					t.Fatalf("p=%d rank %d attr %d: mean %v want %v", p, r, k, pr.Mean[k], seq.Mean[k])
				}
				if !stats.AlmostEqual(pr.Sigma[k], seq.Sigma[k], 1e-9) {
					t.Fatalf("p=%d rank %d attr %d: sigma %v want %v", p, r, k, pr.Sigma[k], seq.Sigma[k])
				}
			}
		}
	}
}

func TestParallelPriorsDiscreteCounts(t *testing.T) {
	spec := datagen.ProteinMixture()
	ds, _, err := spec.Generate(900, 5)
	if err != nil {
		t.Fatal(err)
	}
	seq := model.NewPriors(ds, ds.Summarize())
	err = mpi.Run(3, func(c *mpi.Comm) error {
		view, err := PartitionView(c, ds)
		if err != nil {
			return err
		}
		pr, err := ParallelPriors(c, view, nil)
		if err != nil {
			return err
		}
		for k := range seq.GlobalFreq {
			if seq.GlobalFreq[k] == nil {
				continue
			}
			for v := range seq.GlobalFreq[k] {
				if !stats.AlmostEqual(pr.GlobalFreq[k][v], seq.GlobalFreq[k][v], 1e-9) {
					return fmt.Errorf("attr %d level %d: %v want %v", k, v, pr.GlobalFreq[k][v], seq.GlobalFreq[k][v])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The central correctness claim of the paper: P-AutoClass maintains "the
// same semantics of the sequential algorithm" (§3). The parallel search
// must produce the same classification as the sequential one for every P,
// up to floating-point reduction-order noise.
func TestParallelEqualsSequential(t *testing.T) {
	ds := paperDS(t, 1200)
	cfg := quickSearchConfig()
	seq, err := autoclass.Search(ds, model.DefaultSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 5, 8} {
		par := runParallelSearch(t, ds, p, cfg, DefaultOptions())
		if par.Best.J() != seq.Best.J() {
			t.Fatalf("p=%d: J=%d, sequential %d", p, par.Best.J(), seq.Best.J())
		}
		if !stats.AlmostEqual(par.Best.LogPost, seq.Best.LogPost, 1e-6) {
			t.Fatalf("p=%d: logpost %v, sequential %v", p, par.Best.LogPost, seq.Best.LogPost)
		}
		if par.BestTry.Seed != seq.BestTry.Seed || par.BestTry.StartJ != seq.BestTry.StartJ {
			t.Fatalf("p=%d: best try differs: %+v vs %+v", p, par.BestTry, seq.BestTry)
		}
		// Class parameters must match pairwise (same order: both searches
		// are deterministic and prune identically).
		for j := range seq.Best.Classes {
			ps := seq.Best.Classes[j].Terms[0].Params()
			pp := par.Best.Classes[j].Terms[0].Params()
			for i := range ps {
				if !stats.AlmostEqual(ps[i], pp[i], 1e-6) {
					t.Fatalf("p=%d class %d param %d: %v vs %v", p, j, i, pp[i], ps[i])
				}
			}
		}
	}
}

func TestParallelRanksAgreeBitForBit(t *testing.T) {
	// All ranks of one run must hold the identical classification, exactly.
	ds := paperDS(t, 600)
	cfg := quickSearchConfig()
	const p = 4
	posts := make([]float64, p)
	js := make([]int, p)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		res, err := Search(c, ds, model.DefaultSpec(ds), cfg, DefaultOptions())
		if err != nil {
			return err
		}
		posts[c.Rank()] = res.Best.LogPost
		js[c.Rank()] = res.Best.J()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		if posts[r] != posts[0] || js[r] != js[0] {
			t.Fatalf("rank %d diverged: %v/%d vs %v/%d", r, posts[r], js[r], posts[0], js[0])
		}
	}
}

// kernelScenarios builds the four datasets × model specs of the kernel
// tests in internal/autoclass at n rows: between them every term kind,
// missing-value patterns (none, sparse, partial multi-normal blocks) and
// the log-normal support guard.
func kernelScenarios(t testing.TB, n int) []struct {
	name string
	ds   *dataset.Dataset
	spec model.Spec
} {
	t.Helper()
	inject := func(ds *dataset.Dataset, frac float64, seed uint64) *dataset.Dataset {
		if _, err := datagen.InjectMissing(ds, frac, seed); err != nil {
			t.Fatal(err)
		}
		return ds
	}
	paper := paperDS(t, n)
	paperMiss := inject(paperDS(t, n), 0.15, 9)
	protein, _, err := datagen.ProteinMixture().Generate(n, 11)
	if err != nil {
		t.Fatal(err)
	}
	protein = inject(protein, 0.1, 13)
	logn, _, err := datagen.LogNormalMixture(n, 17)
	if err != nil {
		t.Fatal(err)
	}
	logn = inject(logn, 0.1, 19)
	return []struct {
		name string
		ds   *dataset.Dataset
		spec model.Spec
	}{
		{"paper_default", paper, model.DefaultSpec(paper)},
		{"paper_missing", paperMiss, model.DefaultSpec(paperMiss)},
		{"protein_correlated_missing", protein, model.CorrelatedSpec(protein)},
		{"lognormal_missing", logn, model.LogNormalSpec(logn)},
	}
}

// TestWtsOnlyEqualsFull is the trajectory oracle of the blocked kernels.
// The two parallel strategies are independent implementations of the same
// EM — Full on the blocked kernels, WtsOnly row by row through the terms —
// so they must converge to the same classification: the same class count,
// the same log posterior to 1e-6, and the same class for every case. The
// cases cover every term kind and missing-value pattern, one and three
// ranks, one and four workers per rank, and both statistics granularities.
func TestWtsOnlyEqualsFull(t *testing.T) {
	ds := paperDS(t, 800)
	cfg := quickSearchConfig()
	full := runParallelSearch(t, ds, 3, cfg, Options{EM: cfg.EM, Strategy: Full})
	wts := runParallelSearch(t, ds, 3, cfg, Options{EM: cfg.EM, Strategy: WtsOnly})
	if full.Best.J() != wts.Best.J() {
		t.Fatalf("J differs: %d vs %d", full.Best.J(), wts.Best.J())
	}
	if !stats.AlmostEqual(full.Best.LogPost, wts.Best.LogPost, 1e-6) {
		t.Fatalf("logpost differs: %v vs %v", full.Best.LogPost, wts.Best.LogPost)
	}
	for _, sc := range kernelScenarios(t, 900) {
		for _, p := range []int{1, 3} {
			for _, par := range []int{1, 4} {
				for _, gran := range []autoclass.Granularity{autoclass.PerTerm, autoclass.Packed} {
					t.Run(fmt.Sprintf("%s/P=%d/par=%d/%v", sc.name, p, par, gran), func(t *testing.T) {
						cfg := autoclass.DefaultSearchConfig()
						cfg.StartJList = []int{2, 4}
						cfg.Tries = 1
						cfg.EM.MaxCycles = 60
						cfg.EM.Parallelism = par
						cfg.EM.Granularity = gran
						full := runParallelSearchSpec(t, sc.ds, sc.spec, p, cfg, Options{EM: cfg.EM, Strategy: Full})
						wts := runParallelSearchSpec(t, sc.ds, sc.spec, p, cfg, Options{EM: cfg.EM, Strategy: WtsOnly})
						if full.Best.J() != wts.Best.J() {
							t.Fatalf("J differs: Full %d, WtsOnly %d", full.Best.J(), wts.Best.J())
						}
						if !stats.AlmostEqual(full.Best.LogPost, wts.Best.LogPost, 1e-6) {
							t.Fatalf("logpost differs: Full %v, WtsOnly %v", full.Best.LogPost, wts.Best.LogPost)
						}
						for i := 0; i < sc.ds.N(); i++ {
							row := sc.ds.RowTo(nil, i)
							if f, w := full.Best.HardAssign(row), wts.Best.HardAssign(row); f != w {
								t.Fatalf("case %d assigned to class %d under Full, %d under WtsOnly", i, f, w)
							}
						}
					})
				}
			}
		}
	}
}

// TestKernelModesAgreeAcrossGranularities is the parallel leg of the
// kernel trajectory guarantee on a 2-rank run: under both statistics
// granularities, a search on the blocked kernels (Full) and one on the
// per-row path (WtsOnly) must discover the same class count and assign
// every case to the same class.
func TestKernelModesAgreeAcrossGranularities(t *testing.T) {
	ds := paperDS(t, 800)
	for _, gran := range []autoclass.Granularity{autoclass.PerTerm, autoclass.Packed} {
		t.Run(fmt.Sprint(gran), func(t *testing.T) {
			run := func(strategy Strategy) *autoclass.SearchResult {
				cfg := quickSearchConfig()
				cfg.EM.Granularity = gran
				return runParallelSearch(t, ds, 2, cfg, Options{EM: cfg.EM, Strategy: strategy})
			}
			blocked := run(Full)
			perRow := run(WtsOnly)
			if blocked.Best.J() != perRow.Best.J() {
				t.Fatalf("class counts diverged: blocked J=%d, per-row J=%d",
					blocked.Best.J(), perRow.Best.J())
			}
			if !stats.AlmostEqual(blocked.Best.LogPost, perRow.Best.LogPost, 1e-6) {
				t.Fatalf("posteriors diverged: blocked %v, per-row %v",
					blocked.Best.LogPost, perRow.Best.LogPost)
			}
			for i := 0; i < ds.N(); i++ {
				row := ds.RowTo(nil, i)
				if b, r := blocked.Best.HardAssign(row), perRow.Best.HardAssign(row); b != r {
					t.Fatalf("case %d assigned to class %d on the blocked path, %d on the per-row path", i, b, r)
				}
			}
		})
	}
}

// TestSearchRunsConfigEM: Search and SearchHybrid run the SearchConfig's
// EM, the configuration the state file's fingerprint records, whatever
// EM the Options carry. With cfg.EM capped at 8 cycles and convergence
// off, under DefaultOptions' engine defaults, no try may run past 8.
func TestSearchRunsConfigEM(t *testing.T) {
	ds := paperDS(t, 600)
	cfg := quickSearchConfig()
	cfg.EM.MaxCycles = 8
	cfg.EM.RelDelta = 0
	check := func(name string, res *autoclass.SearchResult) {
		t.Helper()
		for _, tr := range res.Tries {
			if tr.Cycles > cfg.EM.MaxCycles {
				t.Errorf("%s: try J=%d #%d ran %d cycles, cap %d", name, tr.StartJ, tr.Try, tr.Cycles, cfg.EM.MaxCycles)
			}
		}
	}
	check("Search", runParallelSearch(t, ds, 2, cfg, DefaultOptions()))
	res, err := SearchHybrid(ds, model.DefaultSpec(ds), cfg, HybridConfig{Procs: 2, Variants: 2},
		func(int, int) Options { return DefaultOptions() })
	if err != nil {
		t.Fatal(err)
	}
	check("SearchHybrid", res)
}

func TestPackedGranularityEqualsPerTerm(t *testing.T) {
	ds := paperDS(t, 800)
	cfg := quickSearchConfig()
	optsPacked := DefaultOptions()
	optsPacked.EM.Granularity = autoclass.Packed
	cfgPacked := cfg
	cfgPacked.EM.Granularity = autoclass.Packed
	perTerm := runParallelSearch(t, ds, 4, cfg, DefaultOptions())
	packed := runParallelSearch(t, ds, 4, cfgPacked, optsPacked)
	if !stats.AlmostEqual(perTerm.Best.LogPost, packed.Best.LogPost, 1e-6) {
		t.Fatalf("granularity changed result: %v vs %v", perTerm.Best.LogPost, packed.Best.LogPost)
	}
}

func TestParallelOverTCP(t *testing.T) {
	// The transport must not change the computation at all: the same
	// P-rank run over TCP sockets and over the channel mesh is the same
	// sequence of reductions in the same order, so the results must be
	// bit-identical.
	ds := paperDS(t, 400)
	cfg := quickSearchConfig()
	cfg.StartJList = []int{3}
	mem := runParallelSearch(t, ds, 3, cfg, DefaultOptions())
	var got *autoclass.SearchResult
	err := mpi.RunWith(3, mpi.RunConfig{TCP: true}, func(c *mpi.Comm) error {
		res, err := Search(c, ds, model.DefaultSpec(ds), cfg, DefaultOptions())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			got = res
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Best.LogPost != mem.Best.LogPost || got.Best.J() != mem.Best.J() {
		t.Fatalf("TCP parallel %v/%d vs mem parallel %v/%d",
			got.Best.LogPost, got.Best.J(), mem.Best.LogPost, mem.Best.J())
	}
}

func TestVirtualClockSpeedup(t *testing.T) {
	// On the simulated Meiko CS-2 a larger dataset must show decreasing
	// virtual elapsed time as P grows.
	ds := paperDS(t, 20000)
	cfg := quickSearchConfig()
	cfg.StartJList = []int{8}
	cfg.EM.MaxCycles = 10
	machine := simnet.MeikoCS2()
	elapsed := map[int]float64{}
	for _, p := range []int{1, 2, 4, 8} {
		var t0 float64
		err := mpi.Run(p, func(c *mpi.Comm) error {
			clk := simnet.MustNewClock(machine)
			opts := Options{EM: cfg.EM, Strategy: Full, Clock: clk}
			if _, err := Search(c, ds, model.DefaultSpec(ds), cfg, opts); err != nil {
				return err
			}
			if c.Rank() == 0 {
				t0 = clk.Elapsed()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		elapsed[p] = t0
	}
	if !(elapsed[1] > elapsed[2] && elapsed[2] > elapsed[4] && elapsed[4] > elapsed[8]) {
		t.Fatalf("virtual time not decreasing with P: %v", elapsed)
	}
	speedup8 := elapsed[1] / elapsed[8]
	if speedup8 < 4 {
		t.Fatalf("speedup at P=8 only %.2f for 20k tuples", speedup8)
	}
}

func TestVirtualClockCommGrowsWithP(t *testing.T) {
	ds := paperDS(t, 2000)
	cfg := quickSearchConfig()
	cfg.StartJList = []int{8}
	cfg.EM.MaxCycles = 5
	machine := simnet.MeikoCS2()
	comm := map[int]float64{}
	for _, p := range []int{2, 8} {
		var c0 float64
		err := mpi.Run(p, func(c *mpi.Comm) error {
			clk := simnet.MustNewClock(machine)
			opts := Options{EM: cfg.EM, Strategy: Full, Clock: clk}
			if _, err := Search(c, ds, model.DefaultSpec(ds), cfg, opts); err != nil {
				return err
			}
			if c.Rank() == 0 {
				c0 = clk.CommSeconds()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		comm[p] = c0
	}
	if comm[8] <= comm[2] {
		t.Fatalf("communication time should grow with P: %v", comm)
	}
}

func TestWtsOnlySlowerThanFullUnderModel(t *testing.T) {
	// The paper's §5 claim: parallelizing update_parameters too gives "a
	// further improvement of performance" over the wts-only prototype.
	ds := paperDS(t, 10000)
	cfg := quickSearchConfig()
	cfg.StartJList = []int{8}
	cfg.EM.MaxCycles = 8
	machine := simnet.MeikoCS2()
	times := map[Strategy]float64{}
	for _, strat := range []Strategy{Full, WtsOnly} {
		var t0 float64
		err := mpi.Run(6, func(c *mpi.Comm) error {
			clk := simnet.MustNewClock(machine)
			opts := Options{EM: cfg.EM, Strategy: strat, Clock: clk}
			if _, err := Search(c, ds, model.DefaultSpec(ds), cfg, opts); err != nil {
				return err
			}
			if c.Rank() == 0 {
				t0 = clk.Elapsed()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		times[strat] = t0
	}
	if times[Full] >= times[WtsOnly] {
		t.Fatalf("Full (%.3fs) should beat WtsOnly (%.3fs) at P=6", times[Full], times[WtsOnly])
	}
}

func TestRunTrialValidation(t *testing.T) {
	ds := paperDS(t, 100)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		view, err := PartitionView(c, ds)
		if err != nil {
			return err
		}
		pr, err := ParallelPriors(c, view, nil)
		if err != nil {
			return err
		}
		if _, _, err := RunTrial(nil, view, pr, model.DefaultSpec(ds), 2, 1, DefaultOptions()); err == nil {
			return fmt.Errorf("nil comm accepted")
		}
		bad := DefaultOptions()
		bad.Strategy = Strategy(9)
		if _, _, err := RunTrial(c, view, pr, model.DefaultSpec(ds), 2, 1, bad); err == nil {
			return fmt.Errorf("bad strategy accepted")
		}
		// Ranks must stay in sync: run one good trial to drain.
		_, _, err = RunTrial(c, view, pr, model.DefaultSpec(ds), 2, 1, DefaultOptions())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSearchEmptyDataset(t *testing.T) {
	empty, err := datagen.Paper(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := Search(c, empty, model.DefaultSpec(empty), quickSearchConfig(), DefaultOptions()); err == nil {
			return fmt.Errorf("empty dataset accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMixedTypesParallel(t *testing.T) {
	spec := datagen.ProteinMixture()
	ds, _, err := spec.Generate(1200, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSearchConfig()
	cfg.StartJList = []int{4}
	seq, err := autoclass.Search(ds, model.DefaultSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	par := runParallelSearch(t, ds, 4, cfg, DefaultOptions())
	if !stats.AlmostEqual(par.Best.LogPost, seq.Best.LogPost, 1e-5) {
		t.Fatalf("mixed-type parallel %v vs sequential %v", par.Best.LogPost, seq.Best.LogPost)
	}
}

func TestStrategyString(t *testing.T) {
	if Full.String() != "p-autoclass" || WtsOnly.String() != "wts-only" {
		t.Fatal("strategy names wrong")
	}
}

func TestParallelLogNormalSpecEqualsSequential(t *testing.T) {
	// Exercises the log-domain statistics of ParallelPriors end to end.
	ds, _, err := datagen.LogNormalMixture(900, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSearchConfig()
	cfg.StartJList = []int{3}
	seq, err := autoclass.Search(ds, model.LogNormalSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var par *autoclass.SearchResult
	err = mpi.Run(4, func(c *mpi.Comm) error {
		view, err := PartitionView(c, ds)
		if err != nil {
			return err
		}
		pr, err := ParallelPriors(c, view, nil)
		if err != nil {
			return err
		}
		runner := func(startJ int, seed uint64) (*autoclass.Classification, autoclass.EMResult, error) {
			return RunTrial(c, view, pr, model.LogNormalSpec(ds), startJ, seed, DefaultOptions())
		}
		res, err := autoclass.SearchWith(runner, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			par = res
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(par.Best.LogPost, seq.Best.LogPost, 1e-6) {
		t.Fatalf("log-normal parallel %v vs sequential %v", par.Best.LogPost, seq.Best.LogPost)
	}
}

func TestSearchSurvivesCommFailureWithoutHanging(t *testing.T) {
	// A rank whose transport dies mid-search must surface an error on the
	// victim and release every other rank — the failure-injection analogue
	// of a node crash during a long classification.
	ds := paperDS(t, 300)
	cfg := quickSearchConfig()
	cfg.StartJList = []int{4}
	plans := map[int]mpi.FaultPlan{2: {Faults: []mpi.Fault{{Op: "send", Peer: -1, After: 25}}}}
	errs, err := rankErrors(4, mpi.RunConfig{Faults: plans}, func(c *mpi.Comm) error {
		_, err := Search(c, ds, model.DefaultSpec(ds), cfg, DefaultOptions())
		return err
	})
	if errs[2] == nil {
		t.Fatal("victim rank completed despite injected failure")
	}
	if err == nil {
		t.Fatal("RunWith reported no failure")
	}
	failed := 0
	for _, e := range errs {
		if e != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no rank observed the failure")
	}
}
