package repro

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/autoclass"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/pautoclass"
)

// The facade-equivalence suite: every test here compares Run's output to a
// DIRECT internal-package invocation of the engine the option combination
// selects — same J, same try records, bitwise-identical best
// classification.

func runClsBytes(t *testing.T, cls *Classification) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (&Checkpoint{Classification: cls}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertSameSearch(t *testing.T, got, want *SearchResult) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("nil result: got %v, want %v", got, want)
	}
	if !bytes.Equal(runClsBytes(t, got.Best), runClsBytes(t, want.Best)) {
		t.Error("best classifications differ bitwise")
	}
	if !reflect.DeepEqual(got.Tries, want.Tries) {
		t.Errorf("try records diverged:\ngot:  %+v\nwant: %+v", got.Tries, want.Tries)
	}
}

func runTestDataset(t *testing.T, n int) *Dataset {
	t.Helper()
	ds, err := PaperDataset(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func runQuickCfg() SearchConfig {
	cfg := DefaultSearchConfig()
	cfg.StartJList = []int{2, 5}
	cfg.Tries = 1
	cfg.EM.MaxCycles = 40
	return cfg
}

func TestRunMatchesDirectSequential(t *testing.T) {
	ds := runTestDataset(t, 400)
	cfg := runQuickCfg()
	want, err := autoclass.Search(ds, model.DefaultSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(ds, WithSearchConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, r.Search, want)
	if r.Best() != r.Search.Best {
		t.Error("Result.Best does not return the search best")
	}
}

func TestRunMatchesDirectCorrelated(t *testing.T) {
	ds := runTestDataset(t, 400)
	cfg := runQuickCfg()
	want, err := autoclass.Search(ds, model.CorrelatedSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(ds, WithSearchConfig(cfg), WithCorrelated())
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, r.Search, want)
}

func TestRunMatchesDirectModelSearch(t *testing.T) {
	ds := runTestDataset(t, 400)
	cfg := runQuickCfg()
	want, err := autoclass.SearchModels(ds, autoclass.StandardSpecCandidates(ds, ds.Summarize()), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(ds, WithSearchConfig(cfg), WithModelSearch())
	if err != nil {
		t.Fatal(err)
	}
	if r.Models == nil || r.Search != nil {
		t.Fatalf("model search should fill Models only: %+v", r)
	}
	if !bytes.Equal(runClsBytes(t, r.Models.Best), runClsBytes(t, want.Best)) {
		t.Error("model-search best classifications differ bitwise")
	}
	if r.Best() != r.Models.Best {
		t.Error("Result.Best does not return the model-search best")
	}
}

func TestRunMatchesDirectParallel(t *testing.T) {
	ds := runTestDataset(t, 400)
	cfg := runQuickCfg()
	var want *SearchResult
	err := mpi.Run(3, func(c *mpi.Comm) error {
		res, err := pautoclass.Search(c, ds, model.DefaultSpec(ds), cfg,
			pautoclass.Options{EM: cfg.EM, Strategy: pautoclass.Full})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			want = res
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(ds, WithSearchConfig(cfg), WithParallel(ParallelConfig{Procs: 3}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, r.Search, want)
	if r.Stats.WallSeconds <= 0 {
		t.Error("parallel run reported no wall time")
	}
}

func TestRunMatchesDirectSequentialCheckpoint(t *testing.T) {
	ds := runTestDataset(t, 400)
	cfg := runQuickCfg()
	dir := t.TempDir()
	want, err := autoclass.Search(ds, model.DefaultSpec(ds), cfg,
		&autoclass.SearchOptions{StatePath: filepath.Join(dir, "direct.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(ds, WithSearchConfig(cfg), WithCheckpoint(filepath.Join(dir, "run.ckpt"), 0))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, r.Search, want)
	// A second Run against the finished state file returns the identical
	// result immediately.
	r2, err := Run(ds, WithSearchConfig(cfg), WithCheckpoint(filepath.Join(dir, "run.ckpt"), 0))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, r2.Search, want)
}

func TestRunMatchesDirectParallelCheckpoint(t *testing.T) {
	ds := runTestDataset(t, 400)
	cfg := runQuickCfg()
	var want *SearchResult
	err := mpi.Run(2, func(c *mpi.Comm) error {
		res, err := pautoclass.Search(c, ds, model.DefaultSpec(ds), cfg,
			pautoclass.Options{EM: cfg.EM, Strategy: pautoclass.Full})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			want = res
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "par.ckpt")
	r, err := Run(ds, WithSearchConfig(cfg), WithCheckpoint(path, 4),
		WithParallel(ParallelConfig{Procs: 2}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, r.Search, want)
}

// TestRunObserverWiring is the regression test for a facade observer bug:
// the parallel path once silently dropped observer wiring, so metrics
// stayed empty unless callers bypassed the facade. Through WithObserver the
// engines must actually report — and observation must not perturb the
// trajectory.
func TestRunObserverWiring(t *testing.T) {
	ds := runTestDataset(t, 400)
	cfg := runQuickCfg()
	plain, err := Run(ds, WithSearchConfig(cfg), WithParallel(ParallelConfig{Procs: 2}))
	if err != nil {
		t.Fatal(err)
	}

	o := NewRunObserver(2)
	observed, err := Run(ds, WithSearchConfig(cfg),
		WithParallel(ParallelConfig{Procs: 2}), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, observed.Search, plain.Search)

	agg := o.Aggregate().Snapshot()
	if agg.Counters["engine.cycles"] == 0 {
		t.Error("observer saw no engine cycles — the wiring bug is back")
	}
	if agg.Counters["mpi.collectives.allreduce"] == 0 {
		t.Error("observer saw no collectives")
	}

	// Sequential observer path.
	seqPlain, err := Run(ds, WithSearchConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	so := NewRunObserver(1)
	seqObs, err := Run(ds, WithSearchConfig(cfg), WithObserver(so))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, seqObs.Search, seqPlain.Search)
	if so.Aggregate().Snapshot().Counters["engine.cycles"] == 0 {
		t.Error("sequential observer saw no engine cycles")
	}
}

func machinePtr(m Machine) *Machine { return &m }

// TestRunSearchParallelism: SearchConfig.SearchParallelism is
// bitwise-invariant — sequential and variant-parallel runs land on the
// identical result.
func TestRunSearchParallelism(t *testing.T) {
	ds := runTestDataset(t, 400)
	cfg := runQuickCfg()
	ref, err := Run(ds, WithSearchConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.SearchParallelism = 4
	par, err := Run(ds, WithSearchConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, par.Search, ref.Search)
}

// TestRunHybridParallelism: SearchConfig.SearchParallelism v with
// WithParallel(Procs) splits the budget into v groups of Procs/v ranks,
// bitwise identical to the plain SPMD search over Procs/v ranks.
func TestRunHybridParallelism(t *testing.T) {
	ds := runTestDataset(t, 400)
	cfg := runQuickCfg()
	ref, err := Run(ds, WithSearchConfig(cfg), WithParallel(ParallelConfig{Procs: 2}))
	if err != nil {
		t.Fatal(err)
	}
	cfg.SearchParallelism = 2
	hyb, err := Run(ds, WithSearchConfig(cfg), WithParallel(ParallelConfig{Procs: 4}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, hyb.Search, ref.Search)

	// The observer wires through the hybrid path too.
	o := NewRunObserver(4)
	obs, err := Run(ds, WithSearchConfig(cfg),
		WithParallel(ParallelConfig{Procs: 4}), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, obs.Search, ref.Search)
	if o.Aggregate().Snapshot().Counters["engine.cycles"] == 0 {
		t.Error("hybrid observer saw no engine cycles")
	}
}

// TestRunCheckpointInstrumentation (satellite 4 at the facade): the
// resumable sequential search now accepts WithObserver instead of
// rejecting it, and reports the same instrumentation and Totals as the
// unresumable path.
func TestRunCheckpointInstrumentation(t *testing.T) {
	ds := runTestDataset(t, 400)
	cfg := runQuickCfg()
	refObs := NewRunObserver(1)
	ref, err := Run(ds, WithSearchConfig(cfg), WithObserver(refObs))
	if err != nil {
		t.Fatal(err)
	}

	o := NewRunObserver(1)
	path := filepath.Join(t.TempDir(), "obs.ckpt")
	r, err := Run(ds, WithSearchConfig(cfg), WithCheckpoint(path, 0), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, r.Search, ref.Search)
	got := o.Aggregate().Snapshot().Counters["engine.cycles"]
	want := refObs.Aggregate().Snapshot().Counters["engine.cycles"]
	if got != want {
		t.Errorf("checkpointed observer saw %v cycles, reference %v", got, want)
	}
	if r.Search.Totals.Cycles != ref.Search.Totals.Cycles {
		t.Errorf("checkpointed Totals.Cycles %d, reference %d",
			r.Search.Totals.Cycles, ref.Search.Totals.Cycles)
	}
}

func TestRunOptionValidation(t *testing.T) {
	ds := runTestDataset(t, 120)
	hybrid := DefaultSearchConfig()
	hybrid.SearchParallelism = 2
	cases := []struct {
		name string
		opts []Option
	}{
		{"models+correlated", []Option{WithModelSearch(), WithCorrelated()}},
		{"models+parallel", []Option{WithModelSearch(), WithParallel(ParallelConfig{Procs: 2})}},
		{"models+checkpoint", []Option{WithModelSearch(), WithCheckpoint("x.ckpt", 0)}},
		{"models+observer", []Option{WithModelSearch(), WithObserver(NewRunObserver(1))}},
		{"parallel+correlated", []Option{WithCorrelated(), WithParallel(ParallelConfig{Procs: 2})}},
		{"zero procs", []Option{WithParallel(ParallelConfig{})}},
		{"observer rank mismatch", []Option{WithObserver(NewRunObserver(4))}},
		{"checkpoint without path", []Option{WithCheckpoint("", 4)}},
		{"hybrid+machine", []Option{WithSearchConfig(hybrid),
			WithParallel(ParallelConfig{Procs: 2, Machine: machinePtr(MeikoCS2())})}},
		{"hybrid+checkpoint", []Option{WithSearchConfig(hybrid), WithCheckpoint("x.ckpt", 0),
			WithParallel(ParallelConfig{Procs: 2})}},
		{"hybrid indivisible budget", []Option{WithSearchConfig(hybrid),
			WithParallel(ParallelConfig{Procs: 3})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(ds, tc.opts...); err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		})
	}
	if _, err := Run(nil); err == nil {
		t.Error("nil dataset accepted")
	}
}

// TestPredictFacade smoke-tests the facade Predict against the internal
// batch scorer and the per-row public API.
func TestPredictFacade(t *testing.T) {
	ds := runTestDataset(t, 500)
	r, err := Run(ds, WithSearchConfig(runQuickCfg()))
	if err != nil {
		t.Fatal(err)
	}
	heldout, err := PaperDataset(300, 99)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Predict(r.Best(), heldout, PredictConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 300 || p.J != r.Best().J() {
		t.Fatalf("shape: N=%d J=%d", p.N(), p.J)
	}
	if got := HeldoutLogLik(r.Best(), heldout); p.LogLik != got {
		t.Fatalf("Predict loglik %v, HeldoutLogLik %v", p.LogLik, got)
	}
	for i := 0; i < p.N(); i++ {
		if want := r.Best().HardAssign(heldout.RowTo(nil, i)); p.MAP[i] != want {
			t.Fatalf("row %d: MAP %d, HardAssign %d", i, p.MAP[i], want)
		}
	}
	if _, err := Predict(nil, heldout, PredictConfig{}); err == nil {
		t.Error("nil classification accepted")
	}
}
