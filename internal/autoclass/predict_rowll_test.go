package autoclass

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// TestFoldRowLogLikMatchesPredict is the per-row log-lik property test: for
// every scenario, parallelism and batch length (straddling shard and block
// boundaries), FoldRowLogLik over Prediction.RowLL must reproduce
// Prediction.LogLik bitwise — the invariant the serving tier's request
// coalescing and rank sharding rely on — and each row's RowLL must match
// the per-row oracle's log-evidence (refPredict) to ≤1e-12.
func TestFoldRowLogLikMatchesPredict(t *testing.T) {
	for _, sc := range kernelScenarios(t, 600) {
		cls := fitScenario(t, sc, 4, 6)
		for _, n := range []int{1, 7, 255, 256, 257, 600, 1024, 1500} {
			ho := holdout(t, sc.name, n)
			ref := refPredict(cls, ho.All())
			for _, par := range []int{0, 3} {
				score := func(t *testing.T) *Prediction {
					p, err := Predict(cls, ho, PredictConfig{Parallelism: par, RowLogLik: true})
					if err != nil {
						t.Fatal(err)
					}
					if len(p.RowLL) != n {
						t.Fatalf("RowLL length %d, want %d", len(p.RowLL), n)
					}
					return p
				}
				t.Run(fmt.Sprintf("%s/n%d/blocked/p%d", sc.name, n, par), func(t *testing.T) {
					p := score(t)
					if got := FoldRowLogLik(p.RowLL); got != p.LogLik {
						t.Fatalf("FoldRowLogLik = %v, LogLik = %v (diff %g)",
							got, p.LogLik, got-p.LogLik)
					}
					// The all-missing row injected by holdout falls back
					// to the prior weights, so its log-evidence is the
					// total prior mass: log Σ π_j ≈ 0.
					if n > 2 && math.Abs(p.RowLL[n/2]) > 1e-9 {
						t.Errorf("all-missing row RowLL = %v, want ~0 (prior mass)", p.RowLL[n/2])
					}
					// Without the flag the buffer stays empty and the
					// rest of the result is untouched.
					q, err := Predict(cls, ho, PredictConfig{Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					if len(q.RowLL) != 0 {
						t.Errorf("RowLL populated without RowLogLik: %d entries", len(q.RowLL))
					}
					if q.LogLik != p.LogLik {
						t.Errorf("RowLogLik perturbed LogLik: %v vs %v", q.LogLik, p.LogLik)
					}
					for i := range q.Memberships {
						if q.Memberships[i] != p.Memberships[i] {
							t.Fatalf("RowLogLik perturbed memberships at %d", i)
						}
					}
				})
				t.Run(fmt.Sprintf("%s/n%d/reference/p%d", sc.name, n, par), func(t *testing.T) {
					p := score(t)
					for i, z := range p.RowLL {
						if w := ref.RowLL[i]; !stats.AlmostEqual(z, w, 1e-12) {
							t.Fatalf("row %d: RowLL %v, per-row oracle %v", i, z, w)
						}
					}
					if !stats.AlmostEqual(FoldRowLogLik(p.RowLL), ref.LogLik, 1e-12) {
						t.Fatalf("FoldRowLogLik = %v, per-row oracle LogLik %v", FoldRowLogLik(p.RowLL), ref.LogLik)
					}
				})
			}
		}
	}
}

// TestFoldRowLogLikSubBatch verifies the serving-tier use: scoring rows as
// part of a larger block-aligned batch and folding each request's RowLL
// slice yields the bitwise-identical LogLik (and memberships and MAP) to
// scoring that request alone — for request sizes that do and do not land
// on shard or block boundaries.
func TestFoldRowLogLikSubBatch(t *testing.T) {
	sc := kernelScenarios(t, 500)[1] // paper_missing: exercises the masks
	cls := fitScenario(t, sc, 3, 6)
	sizes := []int{5, 300, 256, 1100}
	// Build the coalesced batch: each request padded to the next
	// KernelBlockRows multiple with all-missing rows, exactly as the
	// serving batcher lays requests out.
	reqs := make([]*dataset.Dataset, len(sizes))
	batch, err := dataset.New("batch", sc.ds.Attrs())
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int, len(sizes))
	pad := make([]float64, sc.ds.NumAttrs())
	for k := range pad {
		pad[k] = dataset.Missing
	}
	buf := make([]float64, sc.ds.NumAttrs())
	for qi, n := range sizes {
		reqs[qi] = holdout(t, sc.name, n)
		offs[qi] = batch.N()
		for i := 0; i < n; i++ {
			if err := batch.AppendRow(reqs[qi].RowTo(buf, i)); err != nil {
				t.Fatal(err)
			}
		}
		for batch.N()%KernelBlockRows != 0 {
			if err := batch.AppendRow(pad); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, par := range []int{0, 4} {
		bp, err := Predict(cls, batch, PredictConfig{Parallelism: par, RowLogLik: true})
		if err != nil {
			t.Fatal(err)
		}
		for qi, n := range sizes {
			alone, err := Predict(cls, reqs[qi], PredictConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if got := FoldRowLogLik(bp.RowLL[offs[qi] : offs[qi]+n]); got != alone.LogLik {
				t.Errorf("par %d req %d: batched fold %v, standalone %v", par, qi, got, alone.LogLik)
			}
			for i := 0; i < n; i++ {
				if bp.MAP[offs[qi]+i] != alone.MAP[i] {
					t.Fatalf("par %d req %d row %d: batched MAP %d, standalone %d",
						par, qi, i, bp.MAP[offs[qi]+i], alone.MAP[i])
				}
				bm := bp.Membership(offs[qi] + i)
				am := alone.Membership(i)
				for j := range am {
					if bm[j] != am[j] {
						t.Fatalf("par %d req %d row %d class %d: batched membership %v, standalone %v",
							par, qi, i, j, bm[j], am[j])
					}
				}
			}
		}
	}
}
