package autoclass

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

// TestCorrelatedKernelsRaceFree is the regression test for kernel scratch
// shared across workers. The correlated (multi-normal) kernels are the
// ones with per-call working memory; one kernel per (class, term) serves
// every worker of a pass. The test forces the workers to interleave:
// GOMAXPROCS of at least 4, Parallelism 4, and exactly one RowShardSize
// shard per worker, so four goroutines run the same kernels at once on
// rows with partially known blocks. Training and batch scoring must match
// Parallelism 1 bitwise, and under -race any write to shared kernel state
// is reported.
func TestCorrelatedKernelsRaceFree(t *testing.T) {
	const workers = 4
	if runtime.GOMAXPROCS(0) < workers {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	}
	ds, _, err := datagen.ProteinMixture().Generate(workers*RowShardSize, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.InjectMissing(ds, 0.1, 13); err != nil {
		t.Fatal(err)
	}
	spec := model.CorrelatedSpec(ds)
	train := func(par int) ([]float64, *Classification) {
		cfg := DefaultConfig()
		cfg.MaxCycles = 5
		cfg.Parallelism = par
		cls := specClassification(t, ds, spec, 3)
		eng, err := NewEngine(ds.All(), cls, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.InitRandom(7); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.History, cls
	}
	wantHist, wantCls := train(1)
	gotHist, gotCls := train(workers)
	sameBits(t, "history", gotHist, wantHist)
	sameClassification(t, gotCls, wantCls)

	want, err := Predict(wantCls, ds, PredictConfig{Parallelism: 1, RowLogLik: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Predict(wantCls, ds, PredictConfig{Parallelism: workers, RowLogLik: true})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "memberships", got.Memberships, want.Memberships)
	sameBits(t, "row log-likelihoods", got.RowLL, want.RowLL)
	sameBits(t, "log-likelihood", []float64{got.LogLik}, []float64{want.LogLik})
	for i := range want.MAP {
		if got.MAP[i] != want.MAP[i] {
			t.Fatalf("MAP[%d]: %d != %d", i, got.MAP[i], want.MAP[i])
		}
	}
}
