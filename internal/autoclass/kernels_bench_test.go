package autoclass

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/datagen"
)

// benchEngine builds a warmed-up single-rank engine over the paper's
// synthetic two-real-attribute dataset at J=8 — the configuration of the
// paper's Fig. 8 runs — and warms the runtime's thread pool (warmThreads).
func benchEngine(b *testing.B, n, j int) *Engine {
	b.Helper()
	ds := paperDS(b, n)
	cfg := DefaultConfig()
	cfg.PruneClasses = false
	cls := mustClassification(b, ds, j)
	eng := mustEngine(b, ds, cls, cfg)
	if err := eng.InitRandom(1); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.BaseCycle(); err != nil {
		b.Fatal(err)
	}
	warmThreads(runtime.GOMAXPROCS(0) + 2)
	return eng
}

// warmThreads makes the runtime start n more OS threads now, in set-up. A
// fresh process starts few; when the scheduler later wants another (say,
// to look for work as sysmon preempts the timed loop) and none is idle, it
// starts one and allocates its bookkeeping, about 5 KB, on the heap. Born
// inside the timed loop, that thread reads as 2–4 B/op in about one fresh
// run in ten. Each goroutine here holds a thread of its own until all n
// hold one; unlocked, the threads stay idle for the scheduler to reuse.
func warmThreads(n int) {
	var started, done sync.WaitGroup
	release := make(chan struct{})
	started.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			started.Done()
			<-release
		}()
	}
	started.Wait()
	close(release)
	done.Wait()
}

// BenchmarkUpdateWts measures the E-step alone — the phase the paper's
// Fig. 4 profile singles out as the dominant base_cycle cost: the fused
// pass's E-step half (kernels plus the class-major normalizer) as
// kernels=blocked, against the per-row oracle (refEStep) as
// kernels=reference. cmd/benchkernels pairs the two names.
func BenchmarkUpdateWts(b *testing.B) {
	b.Run("kernels=blocked", func(b *testing.B) {
		eng := benchEngine(b, 10000, 8)
		out := make([]float64, eng.cls.J()+1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blockedEStep(eng, out, nil)
		}
	})
	b.Run("kernels=reference", func(b *testing.B) {
		eng := benchEngine(b, 10000, 8)
		n, j := eng.view.N(), eng.cls.J()
		out := make([]float64, j+1)
		wts := make([]float64, n*j)
		logp := make([]float64, j)
		row := make([]float64, eng.view.Dataset().NumAttrs())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refEStep(eng, out, wts, logp, row)
		}
	})
}

// BenchmarkBaseCycle measures one full E+M+approximation cycle: the
// engine's BaseCycle as kernels=blocked, against the per-row oracle's
// two-pass cycle (refCycle) as kernels=reference — the ISSUE-4 acceptance
// benchmark (≥2× single-rank speedup, B/op not increased).
func BenchmarkBaseCycle(b *testing.B) {
	b.Run("kernels=blocked", func(b *testing.B) {
		eng := benchEngine(b, 10000, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.BaseCycle(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernels=reference", func(b *testing.B) {
		eng := benchEngine(b, 10000, 8)
		n, j := eng.view.N(), eng.cls.J()
		wts := make([]float64, n*j)
		logp := make([]float64, j)
		row := make([]float64, eng.view.Dataset().NumAttrs())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := refCycle(eng, wts, logp, row); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMaskedCycle measures one full cycle over ProteinMixture with 5%
// missing values — the model of the out-of-core workload, three normal
// terms and a multinomial per class, every column masked — on one worker
// (as BenchmarkBaseCycle) at J=8 and J=64. Its name
// stays outside the kernel comparison's BenchmarkUpdateWts|BenchmarkBaseCycle
// pattern.
func BenchmarkMaskedCycle(b *testing.B) {
	ds, _, err := datagen.ProteinMixture().Generate(20000, 7)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := datagen.InjectMissing(ds, 0.05, 11); err != nil {
		b.Fatal(err)
	}
	for _, j := range []int{8, 64} {
		b.Run(fmt.Sprintf("J=%d", j), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.PruneClasses = false
			eng := mustEngine(b, ds, mustClassification(b, ds, j), cfg)
			if err := eng.InitRandom(1); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.BaseCycle(); err != nil {
				b.Fatal(err)
			}
			warmThreads(runtime.GOMAXPROCS(0) + 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.BaseCycle(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
