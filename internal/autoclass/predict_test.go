package autoclass

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// fitScenario fits a small classification on the scenario's dataset so
// predict tests score under realistic mid-run parameters rather than the
// prior-seeded initial state.
func fitScenario(t testing.TB, sc kernelScenario, j, cycles int) *Classification {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxCycles = cycles
	cfg.PruneClasses = false
	cls := specClassification(t, sc.ds, sc.spec, j)
	eng, err := NewEngine(sc.ds.All(), cls, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitRandom(5); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return cls
}

// holdout generates a fresh draw from the same generator family as the
// scenario — rows the fitted classification never saw — including missing
// values and, for the all-missing row convention, one fully-missing case.
func holdout(t testing.TB, name string, n int) *dataset.Dataset {
	t.Helper()
	var ds *dataset.Dataset
	var err error
	switch name {
	case "paper_default":
		ds, err = datagen.Paper(n, 101)
	case "paper_missing":
		ds, err = datagen.Paper(n, 101)
		if err == nil {
			_, err = datagen.InjectMissing(ds, 0.15, 103)
		}
	case "protein_correlated_missing":
		ds, _, err = datagen.ProteinMixture().Generate(n, 107)
		if err == nil {
			_, err = datagen.InjectMissing(ds, 0.1, 109)
		}
	case "lognormal_missing":
		ds, _, err = datagen.LogNormalMixture(n, 113)
		if err == nil {
			_, err = datagen.InjectMissing(ds, 0.1, 127)
		}
	default:
		t.Fatalf("unknown scenario %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Blank out one mid-dataset row entirely: every term must skip it, so
	// it exercises the no-evidence (prior-weights) fallback.
	if n > 2 {
		for k := 0; k < ds.NumAttrs(); k++ {
			if err := ds.SetMissing(n/2, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

// refPredict is the per-row predict oracle: every row of the view through
// Classification.LogMembership and stats.NormalizeLog — the code path of
// Classification.Predict — with each row's first class of maximum
// membership as its MAP class, its log-evidence in RowLL, and LogLik
// folded from RowLL by FoldRowLogLik, the fixed shard grid's ascending
// fold.
func refPredict(cls *Classification, view *dataset.View) *Prediction {
	n, j := view.N(), cls.J()
	p := &Prediction{J: j, Memberships: make([]float64, n*j), MAP: make([]int, n), RowLL: make([]float64, n)}
	for i := 0; i < n; i++ {
		mem := p.Membership(i)
		cls.LogMembership(view.RowTo(nil, i), mem)
		p.RowLL[i] = stats.NormalizeLog(mem)
		p.MAP[i] = argmax(mem)
	}
	p.LogLik = FoldRowLogLik(p.RowLL)
	return p
}

// argmax returns the index of the first maximum of xs.
func argmax(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// TestPredictBlockedMatchesReference is the predict property test: on new
// data (missing values included, plus an all-missing row) the blocked batch
// path must reproduce the per-row reference oracle's memberships and
// log-likelihood to ≤1e-12 and the exact MAP classes — across every term
// kind and dataset sizes straddling the block and shard boundaries.
func TestPredictBlockedMatchesReference(t *testing.T) {
	for _, n := range []int{3, 255, 256, 257, 1300} {
		for _, sc := range kernelScenarios(t, 600) {
			t.Run(fmt.Sprintf("%s/n=%d", sc.name, n), func(t *testing.T) {
				cls := fitScenario(t, sc, 3, 8)
				ds := holdout(t, sc.name, n)
				ref := refPredict(cls, ds.All())
				blk, err := Predict(cls, ds, PredictConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if ref.N() != n || blk.N() != n || ref.J != blk.J {
					t.Fatalf("shape mismatch: ref %dx%d, blocked %dx%d", ref.N(), ref.J, blk.N(), blk.J)
				}
				for i := range ref.Memberships {
					if !stats.AlmostEqual(blk.Memberships[i], ref.Memberships[i], 1e-12) {
						t.Fatalf("membership %d: blocked %v, reference %v", i, blk.Memberships[i], ref.Memberships[i])
					}
				}
				for i := range ref.MAP {
					if blk.MAP[i] != ref.MAP[i] {
						t.Fatalf("MAP %d: blocked %d, reference %d", i, blk.MAP[i], ref.MAP[i])
					}
				}
				if !stats.AlmostEqual(blk.LogLik, ref.LogLik, 1e-12) {
					t.Fatalf("loglik: blocked %v, reference %v", blk.LogLik, ref.LogLik)
				}
			})
		}
	}
}

// TestPredictMatchesPerRowAPI pins the per-row predict oracle to the
// established per-row public API: its memberships must be bitwise what
// Classification.Predict returns, MAP what HardAssign returns, and LogLik
// what HeldoutLogLik computes.
func TestPredictMatchesPerRowAPI(t *testing.T) {
	sc := kernelScenarios(t, 600)[1] // paper_missing
	cls := fitScenario(t, sc, 3, 8)
	ds := holdout(t, sc.name, 700)
	p := refPredict(cls, ds.All())
	for i := 0; i < ds.N(); i++ {
		row := ds.RowTo(nil, i)
		want := cls.Predict(row)
		got := p.Membership(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d class %d: batch %v, Classification.Predict %v", i, j, got[j], want[j])
			}
		}
		if ha := cls.HardAssign(row); p.MAP[i] != ha {
			t.Fatalf("row %d: batch MAP %d, HardAssign %d", i, p.MAP[i], ha)
		}
	}
	if want := HeldoutLogLik(cls, ds.All()); p.LogLik != want {
		t.Fatalf("loglik: batch %v, HeldoutLogLik %v", p.LogLik, want)
	}
}

// TestPredictDeterministicAcrossParallelism: every Parallelism setting —
// including 0 and GOMAXPROCS — must produce bitwise-identical predictions
// (the scorer always runs the fixed shard grid).
func TestPredictDeterministicAcrossParallelism(t *testing.T) {
	sc := kernelScenarios(t, 600)[0]
	cls := fitScenario(t, sc, 4, 8)
	ds := holdout(t, "paper_missing", 3000)
	base, err := Predict(cls, ds, PredictConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 3, 8, -1} {
		got, err := Predict(cls, ds, PredictConfig{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Memberships {
			if got.Memberships[i] != base.Memberships[i] {
				t.Fatalf("par=%d: membership %d = %v, want %v",
					par, i, got.Memberships[i], base.Memberships[i])
			}
		}
		for i := range base.MAP {
			if got.MAP[i] != base.MAP[i] {
				t.Fatalf("par=%d: MAP %d = %d, want %d", par, i, got.MAP[i], base.MAP[i])
			}
		}
		if got.LogLik != base.LogLik {
			t.Fatalf("par=%d: loglik %v, want %v", par, got.LogLik, base.LogLik)
		}
	}
}

// TestPredictInvariants checks the result-shape contract: memberships are
// probability rows summing to 1, the all-missing row falls back to the
// prior mixing weights, and errors surface for nil/mismatched inputs.
func TestPredictInvariants(t *testing.T) {
	sc := kernelScenarios(t, 600)[0]
	cls := fitScenario(t, sc, 3, 8)
	n := 300
	ds := holdout(t, "paper_default", n)
	p, err := Predict(cls, ds, PredictConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.N(); i++ {
		sum := 0.0
		for _, v := range p.Membership(i) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("row %d: membership out of range: %v", i, p.Membership(i))
			}
			sum += v
		}
		if !stats.AlmostEqual(sum, 1, 1e-9) {
			t.Fatalf("row %d: memberships sum to %v", i, sum)
		}
	}
	// The all-missing row carries no evidence: its memberships are exactly
	// the prior mixing weights the per-row API reports for it.
	blank := n / 2
	want := cls.Predict(ds.RowTo(nil, blank))
	for j, v := range p.Membership(blank) {
		if !stats.AlmostEqual(v, want[j], 1e-12) {
			t.Fatalf("all-missing row class %d: membership %v, want prior weight %v", j, v, want[j])
		}
	}

	if _, err := Predict(nil, ds, PredictConfig{}); err == nil {
		t.Fatal("nil classification accepted")
	}
	if _, err := Predict(cls, nil, PredictConfig{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	wrong := dataset.MustNew("wrong", []dataset.Attribute{{Name: "x", Type: dataset.Real}})
	wrong.AppendRow([]float64{1})
	if _, err := Predict(cls, wrong, PredictConfig{}); err == nil {
		t.Fatal("schema-mismatched dataset accepted")
	}
	empty := dataset.MustNew("empty", ds.Attrs())
	p2, err := Predict(cls, empty, PredictConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.N() != 0 || p2.LogLik != 0 {
		t.Fatalf("empty dataset: N=%d LogLik=%v", p2.N(), p2.LogLik)
	}
}

// TestPredictConcurrentSameModel exercises the documented thread-safety
// contract: concurrent Predict calls against one shared classification
// (the serving registry's access pattern) must race-free produce the same
// answer. Run with -race to enforce the "no shared mutable state" claim.
func TestPredictConcurrentSameModel(t *testing.T) {
	sc := kernelScenarios(t, 600)[0]
	cls := fitScenario(t, sc, 3, 8)
	ds := holdout(t, "paper_default", 1500)
	want, err := Predict(cls, ds, PredictConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			got, err := Predict(cls, ds, PredictConfig{Parallelism: 2})
			if err != nil {
				errs <- err
				return
			}
			if got.LogLik != want.LogLik {
				errs <- fmt.Errorf("concurrent loglik %v, want %v", got.LogLik, want.LogLik)
				return
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
