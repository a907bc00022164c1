package pautoclass

import (
	"testing"

	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// runTrialHistory runs one multi-rank trial at the given intra-rank
// parallelism and returns rank 0's per-cycle log-posterior trajectory.
func runTrialHistory(t testing.TB, p, par int, strategy Strategy) []float64 {
	t.Helper()
	ds := paperDS(t, 2000)
	var hist []float64
	err := mpi.Run(p, func(c *mpi.Comm) error {
		view, err := PartitionView(c, ds)
		if err != nil {
			return err
		}
		opts := DefaultOptions()
		opts.Strategy = strategy
		opts.EM.MaxCycles = 12
		opts.EM.Parallelism = par
		pr, err := ParallelPriors(c, view, &opts)
		if err != nil {
			return err
		}
		_, res, err := newTrial(c, view, pr, model.DefaultSpec(ds), opts).run(autoclass.Variant{StartJ: 4, Seed: 11})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			hist = res.History
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hist
}

// TestHybridTrajectoryMatchesAcrossParallelism is the SPMD determinism
// acceptance test: on a multi-rank run, every Parallelism value (0
// included) must reproduce the Parallelism 1 log-posterior trajectory bit
// for bit, because the fixed shard grid makes every rank's reduced
// contributions independent of its worker count.
func TestHybridTrajectoryMatchesAcrossParallelism(t *testing.T) {
	for _, strategy := range []Strategy{Full, WtsOnly} {
		want := runTrialHistory(t, 3, 1, strategy)
		if len(want) == 0 {
			t.Fatalf("%v: empty trajectory", strategy)
		}
		for _, par := range []int{0, 2, 4} {
			got := runTrialHistory(t, 3, par, strategy)
			if len(got) != len(want) {
				t.Fatalf("%v Parallelism %d: %d cycles vs %d", strategy, par, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v Parallelism %d cycle %d: logpost %v != %v",
						strategy, par, i, got[i], want[i])
				}
			}
		}
	}
}

// The full BIG_LOOP search must land on the same best classification for
// any worker count.
func TestHybridSearchSameBest(t *testing.T) {
	ds := paperDS(t, 1500)
	cfg := quickSearchConfig()
	run := func(par int) *autoclass.SearchResult {
		opts := DefaultOptions()
		opts.EM = cfg.EM
		opts.EM.Parallelism = par
		c := cfg
		c.EM.Parallelism = par
		return runParallelSearch(t, ds, 3, c, opts)
	}
	want := run(1)
	got := run(4)
	if got.Best.LogPost != want.Best.LogPost {
		t.Fatalf("best logpost %v (Parallelism 4) != %v (Parallelism 1)", got.Best.LogPost, want.Best.LogPost)
	}
	if got.Best.J() != want.Best.J() {
		t.Fatalf("best J %d != %d", got.Best.J(), want.Best.J())
	}
}

// ParallelPriors must charge the virtual clock once per collective it
// actually issues: sums/mins/maxs/N for an all-real dataset, plus the
// discrete-counts exchange when the dataset has discrete attributes.
func TestPriorsChargesPerCollective(t *testing.T) {
	realDS := paperDS(t, 400)
	spec := datagen.ProteinMixture()
	discDS, _, err := spec.Generate(400, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want int
	}{{"real", 4}, {"discrete", 5}} {
		ds := realDS
		if c.name == "discrete" {
			ds = discDS
		}
		colls := make([]int, 2)
		err := mpi.Run(2, func(comm *mpi.Comm) error {
			view, err := PartitionView(comm, ds)
			if err != nil {
				return err
			}
			opts := DefaultOptions()
			opts.Clock = simnet.MustNewClock(simnet.MeikoCS2())
			if _, err := ParallelPriors(comm, view, &opts); err != nil {
				return err
			}
			colls[comm.Rank()] = opts.Clock.Collectives()
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for r, got := range colls {
			if got != c.want {
				t.Errorf("%s rank %d: %d collectives charged, want %d", c.name, r, got, c.want)
			}
		}
	}
}
