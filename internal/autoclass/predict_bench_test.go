package autoclass

import (
	"testing"

	"repro/internal/datagen"
)

// predictLegs returns the batch-scoring pair over 10k held-out rows at
// J=8 — the serving hot path: the blocked kernels (PredictView) and the
// per-row oracle (refPredict).
func predictLegs(tb testing.TB) (blocked, oracle leg) {
	fit := paperDS(tb, 10000)
	cfg := DefaultConfig()
	cfg.MaxCycles = 5
	cfg.PruneClasses = false
	cls := mustClassification(tb, fit, 8)
	eng := mustEngine(tb, fit, cls, cfg)
	if err := eng.InitRandom(1); err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		tb.Fatal(err)
	}
	heldout, err := datagen.Paper(10000, 33)
	if err != nil {
		tb.Fatal(err)
	}
	view := heldout.All()
	view.Columns() // the view's column window is cut once, outside the timer
	blocked = func() error {
		_, err := PredictView(cls, view, PredictConfig{})
		return err
	}
	oracle = func() error {
		refPredict(cls, view)
		return nil
	}
	return blocked, oracle
}

// BenchmarkPredict measures batch scoring on the blocked kernels as
// kernels=blocked against the per-row oracle as kernels=reference
// (predictLegs; TestKernelGate holds the pair).
func BenchmarkPredict(b *testing.B) {
	blocked, oracle := predictLegs(b)
	b.Run("kernels=blocked", func(b *testing.B) { runLeg(b, blocked) })
	b.Run("kernels=reference", func(b *testing.B) { runLeg(b, oracle) })
}
