// Benchmarks, one per table and figure of the paper's evaluation (see
// DESIGN.md's experiment index). Each benchmark runs the experiment's
// workload at a representative scale and reports the simulated-machine
// quantity the figure plots as a custom metric:
//
//	Fig 6  -> sim-s      (virtual elapsed seconds on the Meiko CS-2)
//	Fig 7  -> speedup    (T(1)/T(P))
//	Fig 8  -> sim-s/cyc  (virtual seconds per base_cycle iteration)
//	TPROF  -> basecycle% (share of runtime inside base_cycle)
//	TSEQ   -> sim-s      (virtual sequential seconds on the Pentium PC)
//	ABLAT  -> sim-s      (virtual elapsed per strategy)
//
// The full paper-scale sweeps are regenerated by `go run ./cmd/benchfigs`;
// these benchmarks keep each cell measurable under `go test -bench`.
package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/autoclass"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pautoclass"
	"repro/internal/simnet"
)

// benchSearchConfig is the fixed-cycle search used by the figure benches.
func benchSearchConfig() repro.SearchConfig {
	cfg := repro.DefaultSearchConfig()
	cfg.StartJList = []int{2, 4, 8}
	cfg.Tries = 1
	cfg.EM.MaxCycles = 10
	cfg.EM.RelDelta = 0
	return cfg
}

func benchDataset(b *testing.B, n int) *repro.Dataset {
	b.Helper()
	ds, err := repro.PaperDataset(n, 42)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkFig6ElapsedTimes measures the full parallel classification of
// the synthetic dataset per (size, P) cell — the quantity behind Fig. 6.
func BenchmarkFig6ElapsedTimes(b *testing.B) {
	machine := repro.MeikoCS2()
	for _, n := range []int{5000, 20000} {
		ds := benchDataset(b, n)
		for _, p := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(b *testing.B) {
				var sim float64
				for i := 0; i < b.N; i++ {
					r, err := repro.Run(ds, repro.WithSearchConfig(benchSearchConfig()),
						repro.WithParallel(repro.ParallelConfig{Procs: p, Machine: &machine}))
					if err != nil {
						b.Fatal(err)
					}
					sim = r.Stats.VirtualSeconds
				}
				b.ReportMetric(sim, "sim-s")
			})
		}
	}
}

// BenchmarkFig7Speedup runs the same workload at P=1 and P=8 and reports
// the simulated speedup — the quantity Fig. 7 plots.
func BenchmarkFig7Speedup(b *testing.B) {
	machine := repro.MeikoCS2()
	for _, n := range []int{5000, 20000} {
		ds := benchDataset(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				r1, err := repro.Run(ds, repro.WithSearchConfig(benchSearchConfig()),
					repro.WithParallel(repro.ParallelConfig{Procs: 1, Machine: &machine}))
				if err != nil {
					b.Fatal(err)
				}
				r8, err := repro.Run(ds, repro.WithSearchConfig(benchSearchConfig()),
					repro.WithParallel(repro.ParallelConfig{Procs: 8, Machine: &machine}))
				if err != nil {
					b.Fatal(err)
				}
				speedup = r1.Stats.VirtualSeconds / r8.Stats.VirtualSeconds
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkFig8Scaleup measures the per-base_cycle virtual time with fixed
// tuples per processor — Fig. 8's y-axis.
func BenchmarkFig8Scaleup(b *testing.B) {
	for _, j := range []int{8, 16} {
		for _, p := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("clusters=%d/p=%d", j, p), func(b *testing.B) {
				ds := benchDataset(b, 10000*p)
				em := autoclass.DefaultConfig()
				em.PruneClasses = false
				var perCycle float64
				for i := 0; i < b.N; i++ {
					err := mpi.Run(p, func(c *mpi.Comm) error {
						clk := simnet.MustNewClock(simnet.MeikoCS2())
						view, err := pautoclass.PartitionView(c, ds)
						if err != nil {
							return err
						}
						opts := pautoclass.Options{EM: em, Clock: clk}
						pr, err := pautoclass.ParallelPriors(c, view, &opts)
						if err != nil {
							return err
						}
						cls, err := autoclass.NewClassification(ds, model.DefaultSpec(ds), pr, j)
						if err != nil {
							return err
						}
						eng, err := autoclass.NewEngine(view, cls, em,
							pautoclass.NewAllreduceReducer(c, clk), clk)
						if err != nil {
							return err
						}
						if err := eng.InitRandom(1); err != nil {
							return err
						}
						if err := clk.SyncBarrier(c); err != nil {
							return err
						}
						start := clk.Elapsed()
						const cycles = 3
						for cyc := 0; cyc < cycles; cyc++ {
							if _, err := eng.BaseCycle(); err != nil {
								return err
							}
						}
						if err := clk.SyncBarrier(c); err != nil {
							return err
						}
						if c.Rank() == 0 {
							perCycle = (clk.Elapsed() - start) / cycles
						}
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(perCycle, "sim-s/cyc")
			})
		}
	}
}

// BenchmarkTableProfile measures the per-row WtsOnly engine on one rank
// (harness.RunProfile) and reports the §3.1 phase breakdown (base_cycle
// share of total runtime).
func BenchmarkTableProfile(b *testing.B) {
	cfg := harness.DefaultProfileConfig()
	cfg.N = 8000
	cfg.Search.EM.MaxCycles = 10
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunProfile(cfg)
		if err != nil {
			b.Fatal(err)
		}
		share = 100 * res.BaseCycleShare()
	}
	b.ReportMetric(share, "basecycle%")
}

// BenchmarkTableSequentialAnchor measures the sequential classification of
// the paper's 14K-tuple anchor under the Pentium PC model (§3).
func BenchmarkTableSequentialAnchor(b *testing.B) {
	ds := benchDataset(b, 14000)
	cfg := benchSearchConfig()
	var sim float64
	for i := 0; i < b.N; i++ {
		clk := simnet.MustNewClock(simnet.PentiumPC())
		if _, err := autoclass.Search(ds, model.DefaultSpec(ds), cfg, &autoclass.SearchOptions{Charger: clk}); err != nil {
			b.Fatal(err)
		}
		sim = clk.Elapsed()
	}
	b.ReportMetric(sim, "sim-s")
}

// BenchmarkTableAblation compares P-AutoClass against the wts-only baseline
// and the one-exchange model variant at P=8 (§5 comparison).
func BenchmarkTableAblation(b *testing.B) {
	ds := benchDataset(b, 20000)
	machine := repro.MeikoCS2()
	variants := []struct {
		name        string
		strategy    pautoclass.Strategy
		oneExchange bool
	}{
		{"full-perterm", pautoclass.Full, false},
		{"wtsonly", pautoclass.WtsOnly, false},
		{"full-one-exchange", pautoclass.Full, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchSearchConfig()
			var sim float64
			for i := 0; i < b.N; i++ {
				err := mpi.Run(8, func(c *mpi.Comm) error {
					clk := simnet.MustNewClock(machine)
					clk.SetOneExchange(v.oneExchange)
					opts := pautoclass.Options{EM: cfg.EM, Strategy: v.strategy, Clock: clk}
					if _, err := pautoclass.Search(c, ds, model.DefaultSpec(ds), cfg, opts); err != nil {
						return err
					}
					if err := clk.SyncBarrier(c); err != nil {
						return err
					}
					if c.Rank() == 0 {
						sim = clk.Elapsed()
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sim, "sim-s")
		})
	}
}

// BenchmarkBaseCycleKernel measures the raw sequential base_cycle — the
// kernel that is 99.5% of AutoClass's runtime.
func BenchmarkBaseCycleKernel(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		for _, j := range []int{8, 16} {
			b.Run(fmt.Sprintf("n=%d/j=%d", n, j), func(b *testing.B) {
				ds := benchDataset(b, n)
				pr := model.NewPriors(ds, ds.Summarize())
				cls, err := autoclass.NewClassification(ds, model.DefaultSpec(ds), pr, j)
				if err != nil {
					b.Fatal(err)
				}
				em := autoclass.DefaultConfig()
				em.PruneClasses = false
				eng, err := autoclass.NewEngine(ds.All(), cls, em, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.InitRandom(1); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.BaseCycle(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n*j)/float64(1), "item-classes")
			})
		}
	}
}

// BenchmarkPredict measures single-instance classification.
func BenchmarkPredict(b *testing.B) {
	ds := benchDataset(b, 2000)
	cfg := benchSearchConfig()
	res, err := repro.Run(ds, repro.WithSearchConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	row := ds.RowTo(nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.Best().Predict(row)
	}
}

// BenchmarkRealParallelism measures actual wall-clock speedup of the
// P-AutoClass engine on host cores (no virtual clock): the in-process rank
// mesh really does spread update_wts/update_parameters across CPUs.
func BenchmarkRealParallelism(b *testing.B) {
	ds := benchDataset(b, 50000)
	cfg := benchSearchConfig()
	cfg.StartJList = []int{8}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.Run(ds, repro.WithSearchConfig(cfg), repro.WithParallel(repro.ParallelConfig{Procs: p})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransports compares one Allreduce-heavy search over the channel
// mesh against the TCP loopback transport.
func BenchmarkTransports(b *testing.B) {
	ds := benchDataset(b, 5000)
	cfg := benchSearchConfig()
	cfg.StartJList = []int{8}
	for _, tcp := range []bool{false, true} {
		name := "mem"
		if tcp {
			name = "tcp"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.Run(ds, repro.WithSearchConfig(cfg), repro.WithParallel(repro.ParallelConfig{Procs: 4, UseTCP: tcp})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHybridBaseCycle measures the wall-clock effect of the hybrid
// intra-rank worker pool on a single rank's base_cycle — the tentpole of
// the shared-memory execution mode. Parallelism 1 runs the sharded path on
// one worker (the numerical baseline); higher values fan the same shards
// out across goroutines and must reproduce the identical LogPost.
func BenchmarkHybridBaseCycle(b *testing.B) {
	const n, j = 50000, 16
	ds := benchDataset(b, n)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			pr := model.NewPriors(ds, ds.Summarize())
			cls, err := autoclass.NewClassification(ds, model.DefaultSpec(ds), pr, j)
			if err != nil {
				b.Fatal(err)
			}
			em := autoclass.DefaultConfig()
			em.PruneClasses = false
			em.Parallelism = par
			eng, err := autoclass.NewEngine(ds.All(), cls, em, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.InitRandom(1); err != nil {
				b.Fatal(err)
			}
			// First cycle outside the timer: its LogPost from a fixed init is
			// directly comparable across the par sub-benchmarks and must be
			// identical for every worker count.
			cs, err := eng.BaseCycle()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(cs.LogPost, "logpost")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.BaseCycle(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHybridVirtualSpeedup reports the modeled node-level base_cycle
// speedup of the hybrid engine on the SMP-cluster machine: virtual seconds
// per cycle at Parallelism 1 over Parallelism par. The wall-clock companion
// above needs physical cores (GOMAXPROCS > 1) to show a speedup; this
// metric exercises the cost model's intra-rank Cores term on any host.
func BenchmarkHybridVirtualSpeedup(b *testing.B) {
	const n, j = 20000, 8
	ds := benchDataset(b, n)
	cycleTime := func(par int) float64 {
		clk := simnet.MustNewClock(simnet.SMPCluster())
		clk.SetParallelism(par)
		pr := model.NewPriors(ds, ds.Summarize())
		cls, err := autoclass.NewClassification(ds, model.DefaultSpec(ds), pr, j)
		if err != nil {
			b.Fatal(err)
		}
		em := autoclass.DefaultConfig()
		em.PruneClasses = false
		em.Parallelism = par
		eng, err := autoclass.NewEngine(ds.All(), cls, em, nil, clk)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.InitRandom(1); err != nil {
			b.Fatal(err)
		}
		start := clk.Elapsed()
		if _, err := eng.BaseCycle(); err != nil {
			b.Fatal(err)
		}
		return clk.Elapsed() - start
	}
	for _, par := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				speedup = cycleTime(1) / cycleTime(par)
			}
			b.ReportMetric(speedup, "sim-speedup")
		})
	}
}
