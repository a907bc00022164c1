package autoclass

import (
	"runtime"
	"sync"
	"testing"
)

// benchEngine builds a warmed-up single-rank engine over the paper's
// synthetic two-real-attribute dataset at J=8 — the configuration of the
// paper's Fig. 8 runs — in the given kernel mode, and warms the runtime's
// thread pool (warmThreads).
func benchEngine(b *testing.B, n, j int, mode KernelMode) *Engine {
	b.Helper()
	ds := paperDS(b, n)
	cfg := DefaultConfig()
	cfg.Kernels = mode
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
// Fig. 4 profile singles out as the dominant base_cycle cost — under both
// kernel modes: the fused pass's E-step half (kernels plus the class-major
// normalizer) against the reference per-row loop.
func BenchmarkUpdateWts(b *testing.B) {
	for _, mode := range []KernelMode{Blocked, Reference} {
		b.Run("kernels="+mode.String(), func(b *testing.B) {
			eng := benchEngine(b, 10000, 8, mode)
			n, j := eng.view.N(), eng.cls.J()
			out := make([]float64, j+1)
			logp := make([]float64, j)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == Blocked {
					blockedEStep(eng, out, nil)
				} else {
					eng.wtsRows(0, n, out, logp)
				}
			}
		})
	}
}

// BenchmarkBaseCycle measures one full E+M+approximation cycle under both
// kernel modes — the ISSUE-4 acceptance benchmark (≥2× single-rank
// speedup for Blocked vs Reference, B/op not increased).
func BenchmarkBaseCycle(b *testing.B) {
	for _, mode := range []KernelMode{Blocked, Reference} {
		b.Run("kernels="+mode.String(), func(b *testing.B) {
			eng := benchEngine(b, 10000, 8, mode)
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
