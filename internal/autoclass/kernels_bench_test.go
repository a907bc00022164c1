package autoclass

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
)

// benchEngine builds a warmed-up single-rank engine over the paper's
// synthetic two-real-attribute dataset at J=8 — the configuration of the
// paper's Fig. 8 runs — and warms the runtime's thread pool (warmThreads).
func benchEngine(tb testing.TB, n, j int) *Engine {
	tb.Helper()
	ds := paperDS(tb, n)
	cfg := DefaultConfig()
	cfg.PruneClasses = false
	cls := mustClassification(tb, ds, j)
	eng := mustEngine(tb, ds, cls, cfg)
	if err := eng.InitRandom(1); err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.BaseCycle(); err != nil {
		tb.Fatal(err)
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

// A leg is one timed operation of a blocked-vs-oracle pair. The
// benchmarks below and TestKernelGate run the same legs.
type leg func() error

// eStepLegs returns the E-step pair: the fused pass's E-step half (kernels
// plus the class-major normalizer) and the per-row oracle, refEStep.
func eStepLegs(tb testing.TB) (blocked, oracle leg) {
	beng := benchEngine(tb, 10000, 8)
	bout := make([]float64, beng.cls.J()+1)
	blocked = func() error {
		blockedEStep(beng, bout, nil)
		return nil
	}
	reng := benchEngine(tb, 10000, 8)
	n, j := reng.view.N(), reng.cls.J()
	rout := make([]float64, j+1)
	wts := make([]float64, n*j)
	logp := make([]float64, j)
	row := make([]float64, reng.view.Dataset().NumAttrs())
	oracle = func() error {
		refEStep(reng, rout, wts, logp, row)
		return nil
	}
	return blocked, oracle
}

// cycleLegs returns the full-cycle pair: the engine's BaseCycle and the
// per-row oracle's two-pass cycle, refCycle.
func cycleLegs(tb testing.TB) (blocked, oracle leg) {
	beng := benchEngine(tb, 10000, 8)
	blocked = func() error {
		_, err := beng.BaseCycle()
		return err
	}
	reng := benchEngine(tb, 10000, 8)
	n, j := reng.view.N(), reng.cls.J()
	wts := make([]float64, n*j)
	logp := make([]float64, j)
	row := make([]float64, reng.view.Dataset().NumAttrs())
	oracle = func() error { return refCycle(reng, wts, logp, row) }
	return blocked, oracle
}

// runLeg times b.N runs of one leg.
func runLeg(b *testing.B, op leg) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateWts measures the E-step alone — the phase the paper's
// Fig. 4 profile singles out as the dominant base_cycle cost — as
// kernels=blocked against the per-row oracle as kernels=reference
// (eStepLegs; TestKernelGate holds the pair).
func BenchmarkUpdateWts(b *testing.B) {
	blocked, oracle := eStepLegs(b)
	b.Run("kernels=blocked", func(b *testing.B) { runLeg(b, blocked) })
	b.Run("kernels=reference", func(b *testing.B) { runLeg(b, oracle) })
}

// BenchmarkBaseCycle measures one full E+M+approximation cycle as
// kernels=blocked against the per-row oracle as kernels=reference
// (cycleLegs; TestKernelGate holds the pair).
func BenchmarkBaseCycle(b *testing.B) {
	blocked, oracle := cycleLegs(b)
	b.Run("kernels=blocked", func(b *testing.B) { runLeg(b, blocked) })
	b.Run("kernels=reference", func(b *testing.B) { runLeg(b, oracle) })
}

// gateRuns is how many times TestKernelGate times each leg.
const gateRuns = 5

// fastestRun runs op gateRuns times and returns the least wall time and
// the least heap bytes of any run. A steady allocation shows in every
// run; a one-off, such as the runtime starting a thread, does not decide
// the gate.
func fastestRun(t *testing.T, op leg) (time.Duration, uint64) {
	t.Helper()
	best, bytes := time.Duration(math.MaxInt64), uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for i := 0; i < gateRuns; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := op()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, d)
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best, bytes
}

// TestKernelGate holds each blocked path to its per-row oracle on the
// benchmarks' set-up (10,000 paper rows, J=8): the fastest of a few runs
// of the E-step, the full cycle and batch prediction must take no longer
// than the oracle's fastest, and the E-step and the cycle must allocate no
// more heap bytes per run than their oracles (prediction returns a new
// Prediction on both legs). On a 2-vCPU Xeon the blocked legs run 12–16×
// (kernels) and 5–7× (predict) faster, 14–25× and 6× under -race and
// 4–4.6× on 386, so the bound holds with margin on a noisy host.
func TestKernelGate(t *testing.T) {
	eBlocked, eOracle := eStepLegs(t)
	cBlocked, cOracle := cycleLegs(t)
	pBlocked, pOracle := predictLegs(t)
	for _, c := range []struct {
		name            string
		blocked, oracle leg
		bytes           bool
	}{
		{"estep", eBlocked, eOracle, true},
		{"cycle", cBlocked, cOracle, true},
		{"predict", pBlocked, pOracle, false},
	} {
		bt, bb := fastestRun(t, c.blocked)
		ot, ob := fastestRun(t, c.oracle)
		t.Logf("%s: blocked %v %d B, oracle %v %d B (%.1fx)", c.name, bt, bb, ot, ob, float64(ot)/float64(bt))
		if bt > ot {
			t.Errorf("%s: blocked path %v slower than the per-row oracle's %v", c.name, bt, ot)
		}
		if c.bytes && bb > ob {
			t.Errorf("%s: blocked path allocates %d B per run, the per-row oracle %d B", c.name, bb, ob)
		}
	}
}

// BenchmarkMaskedCycle measures one full cycle over ProteinMixture with 5%
// missing values — the model of the out-of-core workload, three normal
// terms and a multinomial per class, every column masked — on one worker
// (as BenchmarkBaseCycle) at J=8 and J=64.
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
