package autoclass

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
)

// Regression tests for the ISSUE 6 resume-path fixes: totals accumulation,
// seed-drift detection, fingerprint coverage and instrumentation wiring.

// fakeStateSearch drives a resumable scheduler run over the deterministic
// synthetic runner, with the real checkpoint codec for the best
// classification.
func fakeStateSearch(tb testing.TB, cfg SearchConfig, statePath string, run TrialRunner) (*SearchResult, error) {
	ds := paperDS(tb, 60)
	raw, err := os.ReadFile(statePath)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	st, err := LoadSearchState(raw, cfg, ds, EngineSequential, 0)
	if err != nil {
		return nil, err
	}
	st.Path = statePath
	sched, err := NewSearchScheduler(cfg, cfg.SearchWorkers())
	if err != nil {
		return nil, err
	}
	return sched.Run(st, func(int) VariantRunner {
		return func(v Variant) (*Classification, EMResult, error) { return run(v.StartJ, v.Seed) }
	})
}

// TestResumedTotalsMatchUninterrupted (satellite 1): a search interrupted
// mid-way and resumed must report the same Totals — including the
// ReducedValues/Reductions the pre-fix resume path dropped — field by
// field. The synthetic runner makes every field deterministic.
func TestResumedTotalsMatchUninterrupted(t *testing.T) {
	cfg := resumeCfg()
	run := fakeRunner(t)
	full, err := fakeStateSearch(t, cfg, filepath.Join(t.TempDir(), "full.json"), run)
	if err != nil {
		t.Fatal(err)
	}
	if full.Totals.ReducedValues == 0 || full.Totals.Reductions == 0 {
		t.Fatal("synthetic runner reported no reducer traffic; the test is vacuous")
	}

	// Interrupt for real: fail on the 4th scheduled try, so the state file
	// holds exactly the first three committed tries and their totals.
	failSeed := cfg.Variants()[3].Seed
	boom := errors.New("interrupted")
	interrupted := filepath.Join(t.TempDir(), "state.json")
	_, err = fakeStateSearch(t, cfg, interrupted, func(startJ int, seed uint64) (*Classification, EMResult, error) {
		if seed == failSeed {
			return nil, EMResult{}, boom
		}
		return run(startJ, seed)
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("interruption did not surface: %v", err)
	}

	resumed, err := fakeStateSearch(t, cfg, interrupted, run)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTries(resumed.Tries, full.Tries) {
		t.Fatalf("resumed tries diverged\n%+v\nvs\n%+v", resumed.Tries, full.Tries)
	}
	rt, ft := resumed.Totals, full.Totals
	if rt.Cycles != ft.Cycles {
		t.Errorf("Cycles %d vs %d", rt.Cycles, ft.Cycles)
	}
	if rt.WtsSeconds != ft.WtsSeconds {
		t.Errorf("WtsSeconds %v vs %v", rt.WtsSeconds, ft.WtsSeconds)
	}
	if rt.ParamsSeconds != ft.ParamsSeconds {
		t.Errorf("ParamsSeconds %v vs %v", rt.ParamsSeconds, ft.ParamsSeconds)
	}
	if rt.ApproxSeconds != ft.ApproxSeconds {
		t.Errorf("ApproxSeconds %v vs %v", rt.ApproxSeconds, ft.ApproxSeconds)
	}
	if rt.InitSeconds != ft.InitSeconds {
		t.Errorf("InitSeconds %v vs %v", rt.InitSeconds, ft.InitSeconds)
	}
	if rt.ReducedValues != ft.ReducedValues {
		t.Errorf("ReducedValues %d vs %d (resume dropped reducer totals)", rt.ReducedValues, ft.ReducedValues)
	}
	if rt.Reductions != ft.Reductions {
		t.Errorf("Reductions %d vs %d (resume dropped reducer totals)", rt.Reductions, ft.Reductions)
	}
}

// TestResumeRejectsSeedDrift (satellite 2): a state file whose recorded
// seed chain disagrees with the one the configuration derives must be
// refused, exactly as the parallel path refuses it.
func TestResumeRejectsSeedDrift(t *testing.T) {
	ds := paperDS(t, 300)
	cfg := resumeCfg()
	spec := model.DefaultSpec(ds)
	statePath := filepath.Join(t.TempDir(), "state.json")
	if _, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	var st stateFileV1
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	st.Completed[1].Seed ^= 1
	if err := (&SearchState{Path: statePath, file: st}).write(); err != nil {
		t.Fatal(err)
	}
	_, err = Search(ds, spec, cfg, &SearchOptions{StatePath: statePath})
	if err == nil {
		t.Fatal("drifted seed chain accepted")
	}
	if !strings.Contains(err.Error(), "seed mismatch") {
		t.Fatalf("error %q does not name the seed mismatch", err)
	}
}

// TestResumeRejectsChangedTrajectoryConfig: resuming with a different
// DupScoreTol or EM configuration, or from a file whose fingerprint records
// a retired search mode, must be refused with an error naming the knob; a
// retired knob that never changed the trajectory is ignored.
func TestResumeRejectsChangedTrajectoryConfig(t *testing.T) {
	ds := paperDS(t, 300)
	cfg := resumeCfg()
	spec := model.DefaultSpec(ds)
	statePath := filepath.Join(t.TempDir(), "state.json")
	if _, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath}); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*SearchConfig){
		"DupScoreTol":    func(c *SearchConfig) { c.DupScoreTol *= 10 },
		"MaxCycles":      func(c *SearchConfig) { c.EM.MaxCycles++ },
		"RelDelta":       func(c *SearchConfig) { c.EM.RelDelta *= 2 },
		"ConvergeWindow": func(c *SearchConfig) { c.EM.ConvergeWindow++ },
		"MinClassWeight": func(c *SearchConfig) { c.EM.MinClassWeight *= 2 },
		"PruneClasses":   func(c *SearchConfig) { c.EM.PruneClasses = !c.EM.PruneClasses },
	} {
		other := cfg
		mutate(&other)
		_, err := Search(ds, spec, other, &SearchOptions{StatePath: statePath})
		if err == nil {
			t.Errorf("changed %s accepted on resume", name)
			continue
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("changed %s: error %q does not name the knob", name, err)
		}
	}
	// Two fingerprint fields record search modes that no longer exist:
	// kernels 1 (the per-row kernel path) and sync_every L > 1 (the
	// bounded-staleness schedule). A file holding either followed another
	// trajectory and must be refused by name; a file holding 0, or not
	// holding the field at all, resumes.
	setFingerprint := func(key string, v any) {
		t.Helper()
		raw, err := os.ReadFile(statePath)
		if err != nil {
			t.Fatal(err)
		}
		var file map[string]json.RawMessage
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatal(err)
		}
		var fp map[string]any
		if err := json.Unmarshal(file["fingerprint"], &fp); err != nil {
			t.Fatal(err)
		}
		if v == nil {
			delete(fp, key)
		} else {
			fp[key] = v
		}
		if file["fingerprint"], err = json.Marshal(fp); err != nil {
			t.Fatal(err)
		}
		if raw, err = json.Marshal(file); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statePath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, retired := range []struct {
		key, knob string
		v         int
	}{
		{"kernels", "Kernels", 1},
		{"sync_every", "SyncEvery", 4},
	} {
		setFingerprint(retired.key, retired.v)
		if _, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath}); err == nil {
			t.Errorf("state file with %s %d accepted on resume", retired.key, retired.v)
		} else if !strings.Contains(err.Error(), retired.knob) {
			t.Errorf("%s %d: error %q does not name the knob", retired.key, retired.v, err)
		}
		setFingerprint(retired.key, 0)
		if _, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath}); err != nil {
			t.Errorf("state file with %s 0 refused on resume: %v", retired.key, err)
		}
		setFingerprint(retired.key, nil)
		if _, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath}); err != nil {
			t.Errorf("state file without %s refused on resume: %v", retired.key, err)
		}
	}
	// A "granularity" key (0 or 1) is from when the statistics exchange
	// could be split per (class, term). Both patterns summed every value
	// as the one exchange does, so a file holding either resumes.
	for _, g := range []int{0, 1} {
		setFingerprint("granularity", g)
		if _, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath}); err != nil {
			t.Errorf("state file with granularity %d refused on resume: %v", g, err)
		}
	}
	// Worker counts are bitwise-invariant and must NOT be fingerprinted:
	// resuming under a different parallelism is legitimate.
	other := cfg
	other.SearchParallelism = 4
	other.EM.Parallelism = 2
	if _, err := Search(ds, spec, other, &SearchOptions{StatePath: statePath}); err != nil {
		t.Errorf("changed worker counts refused on resume: %v", err)
	}
}

// trailObserver records the per-cycle posterior trajectory.
type trailObserver struct {
	cycles int
	trail  []float64
}

func (o *trailObserver) ObserveCycle(info CycleInfo) {
	o.cycles++
	o.trail = append(o.trail, info.LogPost)
}

// TestCheckpointedSearchWiresInstrumentation (satellite 4): the resumable
// search must install the cycle observer on every try's engine and time
// every phase into its Totals, like the plain observed search does, without
// perturbing the trajectory.
func TestCheckpointedSearchWiresInstrumentation(t *testing.T) {
	ds := paperDS(t, 400)
	cfg := resumeCfg()
	spec := model.DefaultSpec(ds)

	refObs := &trailObserver{}
	ref, err := Search(ds, spec, cfg, &SearchOptions{Cycles: refObs})
	if err != nil {
		t.Fatal(err)
	}

	ckptObs := &trailObserver{}
	statePath := filepath.Join(t.TempDir(), "state.json")
	res, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath, Cycles: ckptObs})
	if err != nil {
		t.Fatal(err)
	}

	if ckptObs.cycles == 0 {
		t.Fatal("checkpointed search never notified the cycle observer")
	}
	if ckptObs.cycles != refObs.cycles {
		t.Fatalf("observer saw %d cycles, reference %d", ckptObs.cycles, refObs.cycles)
	}
	for i := range refObs.trail {
		if ckptObs.trail[i] != refObs.trail[i] {
			t.Fatalf("posterior trajectory diverged at cycle record %d", i)
		}
	}
	if res.Totals.Cycles != ref.Totals.Cycles {
		t.Errorf("Totals.Cycles %d, reference %d", res.Totals.Cycles, ref.Totals.Cycles)
	}
	for phase, seconds := range map[string]float64{
		PhaseWts: res.Totals.WtsSeconds, PhaseParams: res.Totals.ParamsSeconds, PhaseInit: res.Totals.InitSeconds,
	} {
		if seconds <= 0 {
			t.Errorf("phase %s not timed", phase)
		}
	}
	// Instrumentation must not perturb the search result.
	if !sameTries(res.Tries, ref.Tries) || res.BestTry != ref.BestTry {
		t.Fatal("instrumented checkpointed search diverged from the observed search")
	}
}

// TestResumableSearchParallelMatchesSequential: the resumable search under
// variant parallelism — interrupted and resumed under a different worker
// count — still lands bitwise on the sequential result.
func TestResumableSearchParallelMatchesSequential(t *testing.T) {
	ds := paperDS(t, 400)
	cfg := resumeCfg()
	spec := model.DefaultSpec(ds)

	ref, err := Search(ds, spec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	par := cfg
	par.SearchParallelism = 4
	statePath := filepath.Join(t.TempDir(), "state.json")
	if _, err := Search(ds, spec, par, &SearchOptions{StatePath: statePath}); err != nil {
		t.Fatal(err)
	}
	truncateState(t, statePath, 2)
	resumed, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath}) // resume sequentially
	if err != nil {
		t.Fatal(err)
	}
	if !sameTries(resumed.Tries, ref.Tries) {
		t.Fatal("parallel checkpointed search + sequential resume diverged from sequential search")
	}
	if resumed.BestTry != ref.BestTry || resumed.Best.LogPost != ref.Best.LogPost {
		t.Fatal("best diverged")
	}
}
