package pautoclass

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// staleConfig returns a search config and matching options running the
// bounded-staleness schedule L. The engine reads Options.EM and the
// checkpoint fingerprint reads SearchConfig.EM, so the two must agree.
func staleConfig(l int) (autoclass.SearchConfig, Options) {
	cfg := quickSearchConfig()
	cfg.EM.SyncEvery = l
	opts := DefaultOptions()
	opts.EM = cfg.EM
	return cfg, opts
}

func heldoutLogLik(t *testing.T, cls *autoclass.Classification, ds *dataset.Dataset) float64 {
	t.Helper()
	p, err := autoclass.Predict(cls, ds, autoclass.PredictConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p.LogLik
}

// The quality claim of the bounded-staleness mode: relaxing the exchange
// schedule must not change what the search learns. The held-out
// log-likelihood of the fitted model must match the synchronous run within
// EXPERIMENTS.md's documented tolerances — 2% relative for L ∈ {2, 4}, 5%
// for L = 8 (eight local cycles between merges can settle a nonconvex EM
// into a slightly different basin) — on the paper's real-valued synthetic
// and on a mixed discrete/real mixture, across seeds.
func TestStaleQualityParity(t *testing.T) {
	tols := map[int]float64{2: 0.02, 4: 0.02, 8: 0.05}
	protein := datagen.ProteinMixture()
	datasets := []struct {
		name           string
		train, heldout func(seed uint64) (*dataset.Dataset, error)
	}{
		{
			"paper",
			func(seed uint64) (*dataset.Dataset, error) { return datagen.Paper(1000, seed) },
			func(seed uint64) (*dataset.Dataset, error) { return datagen.Paper(400, seed+1000) },
		},
		{
			"protein-mixed",
			func(seed uint64) (*dataset.Dataset, error) {
				ds, _, err := protein.Generate(900, seed)
				return ds, err
			},
			func(seed uint64) (*dataset.Dataset, error) {
				ds, _, err := protein.Generate(300, seed+1000)
				return ds, err
			},
		},
	}
	for _, d := range datasets {
		d := d
		t.Run(d.name, func(t *testing.T) {
			for _, seed := range []uint64{42, 7} {
				train, err := d.train(seed)
				if err != nil {
					t.Fatal(err)
				}
				heldout, err := d.heldout(seed)
				if err != nil {
					t.Fatal(err)
				}
				// Run to convergence rather than a fixed cycle budget: a
				// stale cycle advances the model by roughly its local share,
				// so a truncated run compares different optimization depths,
				// not different optima.
				parity := func(l int) (autoclass.SearchConfig, Options) {
					cfg, opts := staleConfig(l)
					cfg.StartJList = []int{3}
					cfg.EM.MaxCycles = 200
					opts.EM = cfg.EM
					return cfg, opts
				}
				cfg, opts := parity(1)
				base := runParallelSearch(t, train, 4, cfg, opts)
				baseLL := heldoutLogLik(t, base.Best, heldout)
				for _, l := range []int{2, 4, 8} {
					cfgL, optsL := parity(l)
					res := runParallelSearch(t, train, 4, cfgL, optsL)
					ll := heldoutLogLik(t, res.Best, heldout)
					if diff := stats.RelDiff(ll, baseLL); diff > tols[l] {
						t.Errorf("seed %d L=%d: held-out loglik %v vs synchronous %v (rel diff %.4f > %.2f)",
							seed, l, ll, baseLL, diff, tols[l])
					}
				}
			}
		})
	}
}

// SyncEvery=1 must be the synchronous engine, not a degenerate staleness
// schedule: explicit 1 and the default produce bitwise-identical results.
func TestSyncEveryOneMatchesDefaultBitwise(t *testing.T) {
	ds := paperDS(t, 600)
	def := runParallelSearch(t, ds, 3, quickSearchConfig(), DefaultOptions())
	cfg, opts := staleConfig(1)
	explicit := runParallelSearch(t, ds, 3, cfg, opts)
	if !bytes.Equal(clsBytes(t, def.Best), clsBytes(t, explicit.Best)) {
		t.Error("explicit SyncEvery=1 diverged from the default synchronous trajectory")
	}
}

// The comm-fraction claim behind the mode: under the virtual machine
// model, raising L at 10 ranks lowers both the collective count and the
// communication fraction of the EM cycles.
func TestStaleCommFractionDropsAtTenRanks(t *testing.T) {
	const (
		p      = 10
		cycles = 8
	)
	measure := func(l int) (frac float64, colls int) {
		ds := paperDS(t, 5000)
		em := autoclass.DefaultConfig()
		em.PruneClasses = false
		em.SyncEvery = l
		em.SyncDriftTol = 0 // pure schedule: isolate L
		em.MaxCycles = cycles + 1
		err := mpi.Run(p, func(c *mpi.Comm) error {
			clk, err := simnet.NewClock(simnet.MeikoCS2())
			if err != nil {
				return err
			}
			view, err := PartitionView(c, ds)
			if err != nil {
				return err
			}
			pr, err := ParallelPriors(c, view, nil)
			if err != nil {
				return err
			}
			cls, err := autoclass.NewClassification(ds, model.DefaultSpec(ds), pr, 6)
			if err != nil {
				return err
			}
			eng, err := autoclass.NewEngine(view, cls, em, NewAllreduceReducer(c, clk), clk)
			if err != nil {
				return err
			}
			if err := eng.InitRandom(1); err != nil {
				return err
			}
			if err := clk.SyncBarrier(c); err != nil {
				return err
			}
			t0, c0, n0 := clk.Elapsed(), clk.CommSeconds(), clk.Collectives()
			for i := 0; i < cycles; i++ {
				if _, err := eng.BaseCycle(); err != nil {
					return err
				}
			}
			if err := clk.SyncBarrier(c); err != nil {
				return err
			}
			if c.Rank() == 0 {
				if total := clk.Elapsed() - t0; total > 0 {
					frac = (clk.CommSeconds() - c0) / total
				}
				colls = clk.Collectives() - n0
			}
			return nil
		})
		if err != nil {
			t.Fatalf("L=%d: %v", l, err)
		}
		return frac, colls
	}
	syncFrac, syncColls := measure(1)
	for _, l := range []int{2, 4, 8} {
		frac, colls := measure(l)
		if colls >= syncColls {
			t.Errorf("L=%d: %d collectives, not below synchronous %d", l, colls, syncColls)
		}
		if frac >= syncFrac {
			t.Errorf("L=%d: comm fraction %.4f, not below synchronous %.4f", l, frac, syncFrac)
		}
	}
}

// syncRecorder records each cycle's sync flag (rank 0 installs it).
type syncRecorder struct {
	mu     sync.Mutex
	synced []bool
}

func (r *syncRecorder) ObserveCycle(info autoclass.CycleInfo) {
	r.mu.Lock()
	r.synced = append(r.synced, info.Stats.Synced)
	r.mu.Unlock()
}

// runStaleSchedule runs one fixed-length stale EM and returns rank 0's
// per-cycle sync flags.
func runStaleSchedule(t *testing.T, l int, driftTol float64, cycles int) []bool {
	t.Helper()
	ds := paperDS(t, 600)
	em := autoclass.DefaultConfig()
	em.PruneClasses = false
	em.RelDelta = 0 // never converge: expose the full schedule
	em.SyncEvery = l
	em.SyncDriftTol = driftTol
	em.MaxCycles = cycles
	rec := &syncRecorder{}
	err := mpi.Run(3, func(c *mpi.Comm) error {
		view, err := PartitionView(c, ds)
		if err != nil {
			return err
		}
		pr, err := ParallelPriors(c, view, nil)
		if err != nil {
			return err
		}
		cls, err := autoclass.NewClassification(ds, model.DefaultSpec(ds), pr, 3)
		if err != nil {
			return err
		}
		eng, err := autoclass.NewEngine(view, cls, em, NewAllreduceReducer(c, nil), nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			eng.SetCycleObserver(rec)
		}
		if err := eng.InitRandom(1); err != nil {
			return err
		}
		_, err = eng.Run()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.synced
}

// The schedule and its drift bound: with the bound disabled the engine
// syncs exactly on the bootstrap cycle, every L-th cycle after, and the
// final cycle; with a tolerance so tight any drift trips it, every cycle
// synchronizes.
func TestStaleScheduleAndDriftBound(t *testing.T) {
	const cycles = 10
	got := runStaleSchedule(t, 4, 0, cycles)
	if len(got) != cycles {
		t.Fatalf("observed %d cycles, want %d", len(got), cycles)
	}
	// Bootstrap at 0, then syncs at 4, 8 and the forced final cycle 9.
	want := []bool{true, false, false, false, true, false, false, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SyncDriftTol=0: schedule %v, want %v", got, want)
		}
	}

	got = runStaleSchedule(t, 4, 1e-18, cycles)
	for i, s := range got {
		if !s {
			t.Fatalf("SyncDriftTol=1e-18: cycle %d ran stale; the drift bound should force every sync: %v", i, got)
		}
	}
}

// A stale run interrupted by a crashed rank must resume from its last
// checkpoint to the bitwise-identical final classification: the snapshots
// record sync-point state, so kill/resume exactness survives SyncEvery>1.
func TestStaleKillAndResumeBitwiseIdentical(t *testing.T) {
	const (
		p      = 4
		victim = 1
	)
	ds := paperDS(t, 240)
	cfg, opts := staleConfig(4)

	ref := runParallelSearch(t, ds, p, cfg, opts)
	refBest := clsBytes(t, ref.Best)

	path := filepath.Join(t.TempDir(), "search.ckpt")
	ck := Checkpoint{Path: path, Every: 2}
	plans := map[int]mpi.FaultPlan{
		victim: {Faults: []mpi.Fault{{Op: "send", Peer: -1, After: 60}}},
	}
	errs, err := rankErrors(p, mpi.RunConfig{Faults: plans}, func(c *mpi.Comm) error {
		_, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(opts, ck))
		return err
	})
	if errs[victim] == nil {
		t.Fatal("victim completed the search; fault budget too large to interrupt it")
	}
	if err == nil {
		t.Fatal("RunWith reported no failure")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint was written before the crash: %v", err)
	}

	err = mpi.Run(p, func(c *mpi.Comm) error {
		res, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(opts, ck))
		if err != nil {
			return err
		}
		if got := clsBytes(t, res.Best); !bytes.Equal(got, refBest) {
			t.Errorf("rank %d: resumed stale search differs from uninterrupted run", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A state file written under one staleness schedule must refuse to resume
// under another: SyncEvery is part of the search fingerprint.
func TestStaleFingerprintRefusesDifferentSchedule(t *testing.T) {
	ds := paperDS(t, 240)
	cfg, opts := staleConfig(4)
	path := filepath.Join(t.TempDir(), "search.ckpt")
	ck := Checkpoint{Path: path, Every: 2}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		_, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(opts, ck))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg2, opts2 := staleConfig(2)
	err = mpi.Run(2, func(c *mpi.Comm) error {
		_, err := Search(c, ds, model.DefaultSpec(ds), cfg2, checkpointed(opts2, ck))
		if err == nil {
			return nil
		}
		if !strings.Contains(err.Error(), "SyncEvery") {
			t.Errorf("rank %d: mismatch error does not name the schedule: %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The group must have refused, not resumed: re-run under L=2 and
	// require the error on rank 0 explicitly.
	var refused bool
	err = mpi.Run(2, func(c *mpi.Comm) error {
		_, err := Search(c, ds, model.DefaultSpec(ds), cfg2, checkpointed(opts2, ck))
		if c.Rank() == 0 && err != nil {
			refused = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !refused {
		t.Error("resume under a different SyncEvery was not refused")
	}
}
