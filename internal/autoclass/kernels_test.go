package autoclass

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/stats"
)

// kernelScenario is one dataset × model-spec combination for the blocked
// vs per-row oracle differential tests. Between them the scenarios cover
// every term kind, missing-value patterns (none, sparse, partial
// multi-normal blocks) and the log-normal support guard.
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
	eng.kerns.prepare(eng.cls.Classes)
	bs := eng.workerScratch(1, j)[0]
	var best [KernelBlockRows]int
	for blo := 0; blo < n; blo += KernelBlockRows {
		bhi := min(blo+KernelBlockRows, n)
		m := bhi - blo
		cols, clo, chi := bs.cur.Block(blo, bhi)
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
	eng.kerns.prepare(eng.cls.Classes)
	bs := eng.workerScratch(1, j)[0]
	col := make([]float64, KernelBlockRows)
	for blo := 0; blo < n; blo += KernelBlockRows {
		bhi := min(blo+KernelBlockRows, n)
		m := bhi - blo
		cols, clo, chi := bs.cur.Block(blo, bhi)
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

// refEStep is the per-row E-step oracle: every row of the engine's view
// through Classification.LogMembership and stats.NormalizeLog, its weights
// written row-major into wts (n×J) and added, with its log-evidence, into
// out = {w_0 … w_{J−1}, logLik}. logp and row are one row's scratch
// (lengths J and NumAttrs).
func refEStep(eng *Engine, out, wts, logp, row []float64) {
	j := eng.cls.J()
	for i := 0; i < eng.view.N(); i++ {
		eng.cls.LogMembership(eng.view.RowTo(row, i), logp)
		z := stats.NormalizeLog(logp)
		w := wts[i*j : (i+1)*j]
		for cj := 0; cj < j; cj++ {
			w[cj] = logp[cj]
			out[cj] += logp[cj]
		}
		if !math.IsInf(z, -1) {
			out[j] += z
		}
	}
}

// refStats is the per-row statistics oracle: every row's weights from the
// row-major matrix wts folded through Term.AccumulateStats into buf, which
// holds every (class, term) statistics vector at the offsets in offs. row
// is one row's scratch (length NumAttrs).
func refStats(eng *Engine, wts, buf []float64, offs []int, row []float64) {
	j := eng.cls.J()
	for i := 0; i < eng.view.N(); i++ {
		eng.view.RowTo(row, i)
		ti := 0
		for cj, cl := range eng.cls.Classes {
			w := wts[i*j+cj]
			for _, term := range cl.Terms {
				term.AccumulateStats(row, w, buf[offs[ti]:offs[ti+1]])
				ti++
			}
		}
	}
}

// refCycle is one synchronous base_cycle of a sequential engine (nil
// Reducer) as the paper's two passes: refEStep into the weights matrix
// wts (at least n×J), the class weights and log-likelihood, refStats over
// the matrix, the statistics exchange, update_approximations and class
// death. With pruning off it allocates nothing once the engine's buffers
// are warm.
func refCycle(eng *Engine, wts, logp, row []float64) error {
	n, j := eng.view.N(), eng.cls.J()
	offs, total := statOffsets(eng.cls, eng.offs)
	eng.offs = offs
	combined := eng.passBuf(j + 1 + total)
	refEStep(eng, combined[:j+1], wts[:n*j], logp[:j], row)
	for cj, cl := range eng.cls.Classes {
		cl.W = combined[cj]
	}
	eng.cls.LogLik = combined[j]
	refStats(eng, wts[:n*j], combined[j+1:], offs, row)
	if _, _, err := eng.exchangeStats(combined[j+1:], offs); err != nil {
		return err
	}
	updateApproximations(eng.cls, eng.charger)
	pruneDeadClasses(eng.cls, eng.cfg)
	eng.cls.Cycles++
	return nil
}

// refSearch runs the BIG_LOOP with every try on the per-row oracle: the
// engine's crisp initialization, then refCycle until the engine's
// convergence rule holds or the cycle cap is reached.
func refSearch(t testing.TB, ds *dataset.Dataset, spec model.Spec, cfg SearchConfig) *SearchResult {
	t.Helper()
	pr := model.NewPriors(ds, ds.Summarize())
	res, err := SearchWith(func(startJ int, seed uint64) (*Classification, EMResult, error) {
		var em EMResult
		cls, err := NewClassification(ds, spec, pr, startJ)
		if err != nil {
			return nil, em, err
		}
		eng, err := NewEngine(ds.All(), cls, cfg.EM, nil, nil)
		if err != nil {
			return nil, em, err
		}
		if err := eng.InitRandom(seed); err != nil {
			return nil, em, err
		}
		wts := make([]float64, ds.N()*startJ)
		logp := make([]float64, startJ)
		row := make([]float64, ds.NumAttrs())
		for em.Cycles < cfg.EM.MaxCycles && !em.Converged {
			if err := refCycle(eng, wts, logp, row); err != nil {
				return nil, em, err
			}
			em.Cycles++
			em.History = append(em.History, cls.LogPost)
			em.Converged = eng.convergedAfter(cls.LogPost)
		}
		cls.Converged = em.Converged
		return cls, em, nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBlockedMatchesReferencePhases is the property test of the blocked
// kernels: on the same classification state, the blocked E-step (the
// block step's sweeps) must reproduce the per-row oracle's weights, class
// sums and log-likelihood, the fused pass the oracle's class sums and
// log-likelihood, and the blocked statistics accumulation the oracle's
// statistics vectors, to ≤1e-12 relative — across every term kind,
// missing-value pattern, and dataset sizes straddling the KernelBlockRows
// and RowShardSize boundaries.
func TestBlockedMatchesReferencePhases(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 1300} {
		for _, sc := range kernelScenarios(t, n) {
			t.Run(fmt.Sprintf("%s/n=%d", sc.name, n), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.PruneClasses = false
				cls := specClassification(t, sc.ds, sc.spec, 3)
				eng, err := NewEngine(sc.ds.All(), cls, cfg, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.InitRandom(5); err != nil {
					t.Fatal(err)
				}
				// A couple of per-row oracle cycles move the parameters to a
				// realistic mid-run state.
				j := cls.J()
				wtsR := make([]float64, n*j)
				logp := make([]float64, j)
				row := make([]float64, sc.ds.NumAttrs())
				for c := 0; c < 2; c++ {
					if err := refCycle(eng, wtsR, logp, row); err != nil {
						t.Fatal(err)
					}
				}
				// E-step, both paths from the identical parameter state.
				outR := make([]float64, j+1)
				refEStep(eng, outR, wtsR, logp, row)
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
				combined, _ := eng.localPass()
				for k := range outR {
					if !stats.AlmostEqual(combined[k], outR[k], 1e-12) {
						t.Fatalf("fused pass accumulator %d: blocked %v, reference %v", k, combined[k], outR[k])
					}
				}
				// M-step over identical weights.
				offs, total := statOffsets(cls, nil)
				bufR := make([]float64, total)
				refStats(eng, wtsR, bufR, offs, row)
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
// term kind and Parallelism ∈ {1, N}, a BIG_LOOP search on the engine and
// one on the per-row oracle (refSearch) must discover the same class count
// and assign every case to the same class. (The two paths associate
// floating point differently, so posteriors agree to tolerance rather
// than bitwise.)
func TestKernelTrajectoriesAgree(t *testing.T) {
	for _, sc := range kernelScenarios(t, 900) {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", sc.name, par), func(t *testing.T) {
				cfg := DefaultSearchConfig()
				cfg.StartJList = []int{2, 4}
				cfg.Tries = 1
				cfg.EM.MaxCycles = 60
				cfg.EM.Parallelism = par
				blocked, err := Search(sc.ds, sc.spec, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				reference := refSearch(t, sc.ds, sc.spec, cfg)
				if blocked.Best.J() != reference.Best.J() {
					t.Fatalf("class counts diverged: blocked J=%d, reference J=%d",
						blocked.Best.J(), reference.Best.J())
				}
				if !stats.AlmostEqual(blocked.Best.LogPost, reference.Best.LogPost, 1e-6) {
					t.Fatalf("posteriors diverged: blocked %v, reference %v",
						blocked.Best.LogPost, reference.Best.LogPost)
				}
				for i := 0; i < sc.ds.N(); i++ {
					row := sc.ds.RowTo(nil, i)
					if b, r := blocked.Best.HardAssign(row), reference.Best.HardAssign(row); b != r {
						t.Fatalf("case %d assigned to class %d under blocked, %d under reference", i, b, r)
					}
				}
			})
		}
	}
}

// TestBlockedDeterministicAcrossParallelism: the fixed block-inside-shard
// grid must make the trajectory bitwise identical for every
// Parallelism ≥ 1.
func TestBlockedDeterministicAcrossParallelism(t *testing.T) {
	ds := paperDS(t, 1500)
	run := func(par int) *SearchResult {
		cfg := DefaultSearchConfig()
		cfg.StartJList = []int{3}
		cfg.Tries = 1
		cfg.EM.MaxCycles = 30
		cfg.EM.Parallelism = par
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

// TestBlockScratchNormOffset pins the block scratch's tuned layout: norm
// sits 120 bytes into blockScratch wherever a pointer is 8 bytes. Adding,
// deleting or resizing a field in front of it moves it, and a move read
// slower on train-paper with every float64 unchanged.
func TestBlockScratchNormOffset(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the tuned offset is for 8-byte pointers")
	}
	if off := unsafe.Offsetof(blockScratch{}.norm); off != 120 {
		t.Fatalf("blockScratch.norm is at offset %d, want 120: resize placementPad as its comment in kernels.go says", off)
	}
}

// TestUpdatePhasesDoNotAllocate extends the AllocsPerRun guards to the
// hot path itself: after warm-up, the fused local pass and a whole
// BaseCycle, which adds the exchange, must run allocation-free — the
// per-cycle buffers live in engine scratch and the kernel cache is fully
// steady-state. The per-row oracle's E-step and cycle must be
// allocation-free too, so the B/op comparison of BenchmarkUpdateWts and
// BenchmarkBaseCycle measures the engine alone.
func TestUpdatePhasesDoNotAllocate(t *testing.T) {
	warm := func(t *testing.T) *Engine {
		ds := paperDS(t, 1000)
		cfg := DefaultConfig()
		cfg.PruneClasses = false
		eng := mustEngine(t, ds, mustClassification(t, ds, 4), cfg)
		if err := eng.InitRandom(3); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			if _, err := eng.BaseCycle(); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	t.Run("blocked", func(t *testing.T) {
		eng := warm(t)
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
	t.Run("reference", func(t *testing.T) {
		eng := warm(t)
		n, j := eng.view.N(), eng.cls.J()
		out := make([]float64, j+1)
		wts := make([]float64, n*j)
		logp := make([]float64, j)
		row := make([]float64, eng.view.Dataset().NumAttrs())
		if a := testing.AllocsPerRun(20, func() { refEStep(eng, out, wts, logp, row) }); a != 0 {
			t.Errorf("oracle E-step allocates %v times per cycle", a)
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := refCycle(eng, wts, logp, row); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("oracle cycle allocates %v times per cycle", a)
		}
	})
}
