package autoclass

import (
	"testing"

	"repro/internal/datagen"
)

// BenchmarkPredict measures batch scoring of 10k held-out rows at J=8 —
// the serving hot path — on the blocked kernels (PredictView) vs the
// per-row oracle (refPredict). The ISSUE-5 acceptance requires blocked ≥2×.
func BenchmarkPredict(b *testing.B) {
	fit := paperDS(b, 10000)
	cfg := DefaultConfig()
	cfg.MaxCycles = 5
	cfg.PruneClasses = false
	cls := mustClassification(b, fit, 8)
	eng := mustEngine(b, fit, cls, cfg)
	if err := eng.InitRandom(1); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	heldout, err := datagen.Paper(10000, 33)
	if err != nil {
		b.Fatal(err)
	}
	view := heldout.All()
	view.Columns() // the lazy mirror is built once, outside the timer
	// The kernels= variant naming pairs with cmd/benchkernels, which
	// computes the blocked-vs-reference speedup for BENCH_predict.json.
	b.Run("kernels=blocked", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := PredictView(cls, view, PredictConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernels=reference", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refPredict(cls, view)
		}
	})
}
