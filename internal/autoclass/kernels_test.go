package autoclass

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/stats"
)

// kernelScenario is one dataset × model-spec combination for the blocked
// vs reference differential tests. Between them the scenarios cover every
// term kind, missing-value patterns (none, sparse, partial multi-normal
// blocks) and the log-normal support guard.
type kernelScenario struct {
	name string
	ds   *dataset.Dataset
	spec model.Spec
}

func kernelScenarios(t testing.TB, n int) []kernelScenario {
	t.Helper()
	paper := paperDS(t, n)
	paperMiss := paperDS(t, n)
	if _, err := datagen.InjectMissing(paperMiss, 0.15, 9); err != nil {
		t.Fatal(err)
	}
	protein, _, err := datagen.ProteinMixture().Generate(n, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.InjectMissing(protein, 0.1, 13); err != nil {
		t.Fatal(err)
	}
	logn, _, err := datagen.LogNormalMixture(n, 17)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.InjectMissing(logn, 0.1, 19); err != nil {
		t.Fatal(err)
	}
	return []kernelScenario{
		{"paper_default", paper, model.DefaultSpec(paper)},
		{"paper_missing", paperMiss, model.DefaultSpec(paperMiss)},
		{"protein_correlated_missing", protein, model.CorrelatedSpec(protein)},
		{"lognormal_missing", logn, model.LogNormalSpec(logn)},
	}
}

func specClassification(t testing.TB, ds *dataset.Dataset, spec model.Spec, j int) *Classification {
	t.Helper()
	pr := model.NewPriors(ds, ds.Summarize())
	cls, err := NewClassification(ds, spec, pr, j)
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

// blockedEStep runs the E-step half of the fused pass over all of the
// engine's rows on one worker — per block sweeps 1 and 2 of the block
// step and the scale-and-fold of sweep 3 without the statistics —
// accumulating {w_j, logLik} into out. When wts is non-nil it also
// receives every row's weights, row-major n×J.
func blockedEStep(eng *Engine, out, wts []float64) {
	n := eng.view.N()
	j := eng.cls.J()
	eng.prepareKernels()
	bs := eng.workerScratch(1, j)[0]
	var best [KernelBlockRows]int
	for blo := 0; blo < n; blo += KernelBlockRows {
		bhi := min(blo+KernelBlockRows, n)
		m := bhi - blo
		cols, clo, chi := eng.block(bs, blo, bhi)
		v := bs.score(eng.cls.Classes, eng.kerns.k, cols, clo, chi)
		bs.norm.expSum(v, m, &out[j])
		if wts != nil {
			bs.norm.scaleArgmax(v, m, wts[blo*j:bhi*j], best[:m])
		}
		for cj := range v {
			out[cj] = new(model.NormalRun).Fold(v[cj][:m], bs.norm.inv[:m], out[cj], false)
		}
	}
	eng.closeCursors()
}

// blockedStats folds the row-major weights wts into the statistics with
// the blocked kernels — per block and class, the weight column gathered
// from the matrix, then one BlockAccumulateStats per term — in the slot
// and row order of the fused pass.
func blockedStats(eng *Engine, wts, buf []float64, offs []int) {
	n := eng.view.N()
	j := eng.cls.J()
	eng.prepareKernels()
	bs := eng.workerScratch(1, j)[0]
	col := make([]float64, KernelBlockRows)
	for blo := 0; blo < n; blo += KernelBlockRows {
		bhi := min(blo+KernelBlockRows, n)
		m := bhi - blo
		cols, clo, chi := eng.block(bs, blo, bhi)
		ti := 0
		for cj := range eng.cls.Classes {
			wcol := col[:m]
			for r := range wcol {
				wcol[r] = wts[(blo+r)*j+cj]
			}
			for _, k := range eng.kerns.k[cj] {
				k.BlockAccumulateStats(cols, wcol, clo, chi, buf[offs[ti]:offs[ti+1]], &bs.ks)
				ti++
			}
		}
	}
	eng.closeCursors()
}

// TestBlockedMatchesReferencePhases is the property test of the blocked
// kernels: on the same classification state, the blocked E-step (the
// block step's sweeps) must reproduce the reference per-row
// weights, class sums and log-likelihood, the fused pass the reference
// class sums and log-likelihood, and the blocked statistics accumulation
// the reference statistics vectors, to ≤1e-12 relative — across every term
// kind, missing-value pattern, and dataset sizes straddling the
// KernelBlockRows and RowShardSize boundaries.
func TestBlockedMatchesReferencePhases(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 1300} {
		for _, sc := range kernelScenarios(t, n) {
			t.Run(fmt.Sprintf("%s/n=%d", sc.name, n), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Kernels = Reference
				cfg.PruneClasses = false
				cls := specClassification(t, sc.ds, sc.spec, 3)
				eng, err := NewEngine(sc.ds.All(), cls, cfg, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.InitRandom(5); err != nil {
					t.Fatal(err)
				}
				// A couple of reference cycles move the parameters to a
				// realistic mid-run state.
				for c := 0; c < 2; c++ {
					if _, err := eng.BaseCycle(); err != nil {
						t.Fatal(err)
					}
				}
				j := cls.J()
				// E-step, both paths from the identical parameter state.
				outR := make([]float64, j+1)
				eng.wtsRows(0, n, outR, make([]float64, j))
				wtsR := append([]float64(nil), eng.wts...)
				outB := make([]float64, j+1)
				wtsB := make([]float64, n*j)
				blockedEStep(eng, outB, wtsB)
				for i := range wtsR {
					if !stats.AlmostEqual(wtsB[i], wtsR[i], 1e-12) {
						t.Fatalf("weight %d: blocked %v, reference %v", i, wtsB[i], wtsR[i])
					}
				}
				for k := range outR {
					if !stats.AlmostEqual(outB[k], outR[k], 1e-12) {
						t.Fatalf("E-step accumulator %d: blocked %v, reference %v", k, outB[k], outR[k])
					}
				}
				// The fused pass's E-step half.
				eng.cfg.Kernels = Blocked
				combined, _ := eng.localPass()
				eng.cfg.Kernels = Reference
				for k := range outR {
					if !stats.AlmostEqual(combined[k], outR[k], 1e-12) {
						t.Fatalf("fused pass accumulator %d: blocked %v, reference %v", k, combined[k], outR[k])
					}
				}
				// M-step over identical weights.
				offs := []int{}
				total := 0
				for _, cl := range cls.Classes {
					for _, term := range cl.Terms {
						offs = append(offs, total)
						total += term.StatsSize()
					}
				}
				offs = append(offs, total)
				bufR := make([]float64, total)
				eng.statsRows(0, n, bufR, offs)
				bufB := make([]float64, total)
				blockedStats(eng, wtsR, bufB, offs)
				for s := range bufR {
					if !stats.AlmostEqual(bufB[s], bufR[s], 1e-12) && !(bufB[s] == 0 && bufR[s] == 0) {
						t.Fatalf("M-step stat %d: blocked %v, reference %v", s, bufB[s], bufR[s])
					}
				}
			})
		}
	}
}

// TestKernelTrajectoriesAgree is the full-search trajectory test: for every
// term kind and Parallelism ∈ {1, N}, a BIG_LOOP search under Blocked and
// under Reference kernels must discover the same class count and assign
// every case to the same class. (The two modes associate floating point
// differently, so posteriors agree to tolerance rather than bitwise.)
func TestKernelTrajectoriesAgree(t *testing.T) {
	for _, sc := range kernelScenarios(t, 900) {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", sc.name, par), func(t *testing.T) {
				run := func(mode KernelMode) *SearchResult {
					cfg := DefaultSearchConfig()
					cfg.StartJList = []int{2, 4}
					cfg.Tries = 1
					cfg.EM.MaxCycles = 60
					cfg.EM.Parallelism = par
					cfg.EM.Kernels = mode
					res, err := Search(sc.ds, sc.spec, cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				blocked := run(Blocked)
				reference := run(Reference)
				if blocked.Best.J() != reference.Best.J() {
					t.Fatalf("class counts diverged: blocked J=%d, reference J=%d",
						blocked.Best.J(), reference.Best.J())
				}
				if !stats.AlmostEqual(blocked.Best.LogPost, reference.Best.LogPost, 1e-6) {
					t.Fatalf("posteriors diverged: blocked %v, reference %v",
						blocked.Best.LogPost, reference.Best.LogPost)
				}
				for i := 0; i < sc.ds.N(); i++ {
					row := sc.ds.Row(i)
					if b, r := blocked.Best.HardAssign(row), reference.Best.HardAssign(row); b != r {
						t.Fatalf("case %d assigned to class %d under blocked, %d under reference", i, b, r)
					}
				}
			})
		}
	}
}

// TestBlockedDeterministicAcrossParallelism: within Blocked mode the fixed
// block-inside-shard grid must make the trajectory bitwise identical for
// every Parallelism ≥ 1 — the same invariant the reference sharded path
// guarantees.
func TestBlockedDeterministicAcrossParallelism(t *testing.T) {
	ds := paperDS(t, 1500)
	run := func(par int) *SearchResult {
		cfg := DefaultSearchConfig()
		cfg.StartJList = []int{3}
		cfg.Tries = 1
		cfg.EM.MaxCycles = 30
		cfg.EM.Parallelism = par
		cfg.EM.Kernels = Blocked
		res, err := Search(ds, model.DefaultSpec(ds), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, par := range []int{2, 7} {
		got := run(par)
		if got.Best.LogPost != base.Best.LogPost {
			t.Fatalf("Parallelism %d changed the blocked trajectory: %v != %v",
				par, got.Best.LogPost, base.Best.LogPost)
		}
	}
}

// TestUpdatePhasesDoNotAllocate extends the AllocsPerRun guards to the
// hot path itself: after warm-up, the local pass (the fused pass under
// Blocked, the E-step pass under Reference) and a whole BaseCycle, which
// adds the Reference statistics pass and the exchange, must run
// allocation-free in BOTH kernel modes — the per-cycle buffers live in
// engine scratch and the kernel cache is fully steady-state.
func TestUpdatePhasesDoNotAllocate(t *testing.T) {
	for _, mode := range []KernelMode{Blocked, Reference} {
		t.Run(mode.String(), func(t *testing.T) {
			ds := paperDS(t, 1000)
			cfg := DefaultConfig()
			cfg.Kernels = mode
			cfg.PruneClasses = false
			cls := mustClassification(t, ds, 4)
			eng := mustEngine(t, ds, cls, cfg)
			if err := eng.InitRandom(3); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 2; c++ {
				if _, err := eng.BaseCycle(); err != nil {
					t.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(20, func() { eng.localPass() }); n != 0 {
				t.Errorf("local pass allocates %v times per cycle", n)
			}
			if n := testing.AllocsPerRun(20, func() {
				if _, err := eng.BaseCycle(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("BaseCycle allocates %v times per cycle", n)
			}
		})
	}
}
