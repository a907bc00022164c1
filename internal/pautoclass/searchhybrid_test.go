package pautoclass

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

func hybridSearchCfg() autoclass.SearchConfig {
	cfg := autoclass.DefaultSearchConfig()
	cfg.StartJList = []int{2, 4, 5}
	cfg.Tries = 2
	cfg.EM.MaxCycles = 20
	return cfg
}

// groupSearch runs the plain SPMD Search on `ranks` ranks and returns the
// (identical-on-every-rank) result.
func groupSearch(t *testing.T, ds *dataset.Dataset, cfg autoclass.SearchConfig, ranks int) *autoclass.SearchResult {
	t.Helper()
	var res *autoclass.SearchResult
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		// Align the per-rank EM options with the search configuration, as
		// SearchHybrid's default optsFor does.
		r, err := Search(c, ds, model.DefaultSpec(ds), cfg, Options{EM: cfg.EM, Strategy: Full})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameTryRecords(a, b []autoclass.TryResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkpointBytes(t *testing.T, cls *autoclass.Classification) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (&autoclass.Checkpoint{Classification: cls}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSearchHybridMatchesGroupSearch: the hybrid split at V groups × R
// ranks is bitwise identical to the plain SPMD search on R ranks, for any
// V — the variant dimension never perturbs the trajectory.
func TestSearchHybridMatchesGroupSearch(t *testing.T) {
	ds := paperDS(t, 600)
	cfg := hybridSearchCfg()
	spec := model.DefaultSpec(ds)

	for _, tc := range []struct{ procs, variants, ranksPerGroup int }{
		{2, 1, 2},
		{4, 2, 2},
		{3, 3, 1},
	} {
		ref := groupSearch(t, ds, cfg, tc.ranksPerGroup)
		res, err := SearchHybrid(ds, spec, cfg,
			HybridConfig{Procs: tc.procs, Variants: tc.variants}, nil)
		if err != nil {
			t.Fatalf("V=%d R=%d: %v", tc.variants, tc.ranksPerGroup, err)
		}
		if !sameTryRecords(res.Tries, ref.Tries) {
			t.Fatalf("V=%d R=%d: tries diverged from %d-rank search", tc.variants, tc.ranksPerGroup, tc.ranksPerGroup)
		}
		if res.BestTry != ref.BestTry {
			t.Fatalf("V=%d R=%d: best try diverged", tc.variants, tc.ranksPerGroup)
		}
		if !bytes.Equal(checkpointBytes(t, res.Best), checkpointBytes(t, ref.Best)) {
			t.Fatalf("V=%d R=%d: best checkpoint bytes diverged", tc.variants, tc.ranksPerGroup)
		}
		if res.Totals.Cycles != ref.Totals.Cycles ||
			res.Totals.ReducedValues != ref.Totals.ReducedValues ||
			res.Totals.Reductions != ref.Totals.Reductions {
			t.Fatalf("V=%d R=%d: deterministic totals diverged", tc.variants, tc.ranksPerGroup)
		}
	}
}

func TestSearchHybridValidation(t *testing.T) {
	ds := paperDS(t, 200)
	cfg := hybridSearchCfg()
	spec := model.DefaultSpec(ds)
	if _, err := SearchHybrid(ds, spec, cfg, HybridConfig{Procs: 4, Variants: 3}, nil); err == nil {
		t.Error("indivisible budget accepted")
	}
	if _, err := SearchHybrid(ds, spec, cfg, HybridConfig{Procs: 2, Variants: 4}, nil); err == nil {
		t.Error("variants exceeding budget accepted")
	}
	if _, err := SearchHybrid(ds, spec, cfg, HybridConfig{Procs: 0}, nil); err == nil {
		t.Error("zero budget accepted")
	}
	// A virtual clock is a serial construct; concurrent groups must refuse it.
	mach := simnet.MeikoCS2()
	_, err := SearchHybrid(ds, spec, cfg, HybridConfig{Procs: 2, Variants: 2},
		func(group, rank int) Options {
			o := DefaultOptions()
			o.Clock = simnet.MustNewClock(mach)
			return o
		})
	if err == nil || !strings.Contains(err.Error(), "virtual clock") {
		t.Errorf("clocked hybrid search: %v", err)
	}
}

// TestSPMDSearchForcesSequentialVariants: the replicated SPMD BIG_LOOP must
// ignore SearchParallelism — its trial runner communicates and cannot run
// concurrently on one rank.
func TestSPMDSearchForcesSequentialVariants(t *testing.T) {
	ds := paperDS(t, 400)
	cfg := hybridSearchCfg()
	ref := groupSearch(t, ds, cfg, 2)
	par := cfg
	par.SearchParallelism = 4
	res := groupSearch(t, ds, par, 2)
	if !sameTryRecords(res.Tries, ref.Tries) || res.BestTry != ref.BestTry {
		t.Fatal("SearchParallelism perturbed the SPMD search")
	}
}
