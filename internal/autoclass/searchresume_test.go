package autoclass

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/model"
)

func resumeCfg() SearchConfig {
	cfg := DefaultSearchConfig()
	cfg.StartJList = []int{2, 4, 5}
	cfg.Tries = 2
	cfg.EM.MaxCycles = 25
	return cfg
}

func TestResumableSearchMatchesPlainSearch(t *testing.T) {
	ds := paperDS(t, 700)
	cfg := resumeCfg()
	spec := model.DefaultSpec(ds)
	plain, err := Search(ds, spec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(t.TempDir(), "state.json")
	resumable, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	if resumable.Best.LogPost != plain.Best.LogPost || resumable.BestTry.Seed != plain.BestTry.Seed {
		t.Fatalf("checkpointed search diverged: %v vs %v", resumable.Best.LogPost, plain.Best.LogPost)
	}
	if len(resumable.Tries) != len(plain.Tries) {
		t.Fatalf("tries %d vs %d", len(resumable.Tries), len(plain.Tries))
	}
	for i := range plain.Tries {
		if resumable.Tries[i].Seed != plain.Tries[i].Seed || resumable.Tries[i].Score != plain.Tries[i].Score {
			t.Fatalf("try %d diverged", i)
		}
	}
}

func TestResumeSkipsCompletedTries(t *testing.T) {
	ds := paperDS(t, 700)
	cfg := resumeCfg()
	spec := model.DefaultSpec(ds)
	statePath := filepath.Join(t.TempDir(), "state.json")

	// Run the full search once, writing state as it goes.
	full, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	// Re-launching with a complete state must not run any engine work:
	// verify via the charger, which only fires inside engine phases.
	var charged float64
	again, err := Search(ds, spec, cfg, &SearchOptions{
		Charger: chargerFunc(func(u float64) { charged += u }), StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	if charged != 0 {
		t.Fatalf("resume of a finished search re-ran %v ops", charged)
	}
	if again.Best.LogPost != full.Best.LogPost || len(again.Tries) != len(full.Tries) {
		t.Fatal("re-launched search returned a different result")
	}
}

func TestResumeAfterInterruption(t *testing.T) {
	ds := paperDS(t, 700)
	cfg := resumeCfg()
	spec := model.DefaultSpec(ds)
	dir := t.TempDir()
	statePath := filepath.Join(dir, "state.json")

	// Reference: uninterrupted run.
	ref, err := Search(ds, spec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// "Interrupt": run the checkpointed search, then truncate its state to
	// the first 3 completed tries, simulating a kill mid-search.
	if _, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath}); err != nil {
		t.Fatal(err)
	}
	truncateState(t, statePath, 3)

	// Resume: must redo only tries 4..6 and land on the reference result.
	resumed, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Best.LogPost != ref.Best.LogPost {
		t.Fatalf("resumed %v, reference %v", resumed.Best.LogPost, ref.Best.LogPost)
	}
	if len(resumed.Tries) != len(ref.Tries) {
		t.Fatalf("tries %d vs %d", len(resumed.Tries), len(ref.Tries))
	}
	for i := range ref.Tries {
		if resumed.Tries[i].Seed != ref.Tries[i].Seed {
			t.Fatalf("try %d seed diverged after resume", i)
		}
	}
}

// TestStateWriteFaults: a state write that fails — short, out of space, or
// at the rename — fails the search and leaves the state file as the last
// good write left it, with no temporary file beside it; the search
// resumed from that file lands on the uninterrupted one bit for bit.
func TestStateWriteFaults(t *testing.T) {
	ds := paperDS(t, 700)
	cfg := resumeCfg()
	spec := model.DefaultSpec(ds)
	ref, err := Search(ds, spec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []atomicfile.Fault{atomicfile.ShortWrite, atomicfile.NoSpace, atomicfile.RenameFails} {
		dir := t.TempDir()
		statePath := filepath.Join(dir, "state.json")
		disarm := atomicfile.Inject(statePath, 2, fault)
		_, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath})
		disarm()
		if err == nil {
			t.Fatalf("fault %d: search succeeded through a failed state write", fault)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 {
			t.Fatalf("fault %d: state directory holds %v (%v), want only state.json", fault, ents, err)
		}
		raw, err := os.ReadFile(statePath)
		if err != nil {
			t.Fatal(err)
		}
		var st stateFileV1
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("fault %d: the previous state no longer parses: %v", fault, err)
		}
		if len(st.Completed) != 2 {
			t.Fatalf("fault %d: state holds %d tries, want the 2 of the last good write", fault, len(st.Completed))
		}
		for i, tr := range st.Completed {
			if tr != ref.Tries[i] {
				t.Fatalf("fault %d: state try %d is %+v, reference %+v", fault, i, tr, ref.Tries[i])
			}
		}
		resumed, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath})
		if err != nil {
			t.Fatalf("fault %d: resume: %v", fault, err)
		}
		if math.Float64bits(resumed.Best.LogPost) != math.Float64bits(ref.Best.LogPost) || resumed.BestTry != ref.BestTry || len(resumed.Tries) != len(ref.Tries) {
			t.Fatalf("fault %d: resumed best %v (%d tries), reference %v (%d tries)", fault, resumed.Best.LogPost, len(resumed.Tries), ref.Best.LogPost, len(ref.Tries))
		}
		for i := range ref.Tries {
			got, want := resumed.Tries[i], ref.Tries[i]
			if got != want || math.Float64bits(got.Score) != math.Float64bits(want.Score) || math.Float64bits(got.LogLik) != math.Float64bits(want.LogLik) {
				t.Fatalf("fault %d: resumed try %d is %+v, reference %+v", fault, i, got, want)
			}
		}
	}
}

// TestPathlessCommitSkipsBest: a state without a Path (an SPMD rank other
// than 0) is never written, so its commit serializes no best
// classification; it still drops the finished try's mid-try snapshot. A
// state with a Path records the best.
func TestPathlessCommitSkipsBest(t *testing.T) {
	ds := paperDS(t, 240)
	cfg := resumeCfg()
	res, err := Search(ds, model.DefaultSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"", filepath.Join(t.TempDir(), "state.json")} {
		st, err := LoadSearchState(nil, cfg, ds, EngineSPMD, 2)
		if err != nil {
			t.Fatal(err)
		}
		st.Path = path
		st.file.InTry, st.inTry = []byte("{}"), &Checkpoint{}
		if err := st.commit(res); err != nil {
			t.Fatal(err)
		}
		if st.file.InTry != nil || st.inTry != nil {
			t.Errorf("path %q: the commit kept the mid-try snapshot", path)
		}
		if wrote := len(st.file.Best) > 0; wrote != (path != "") {
			t.Errorf("path %q: the commit serialized a best of %d bytes", path, len(st.file.Best))
		}
	}
}

// TestResumeAcrossParallelism: the state fingerprint leaves EM.Parallelism
// out because no worker count moves a bit, so a search checkpointed at one
// worker count, cut short and resumed at another must land on the
// uninterrupted search's tries and best classification bytes — in both
// directions, and with 0 on one side. 3000 rows span three 1024-row
// shards, so a worker count that folded the rows in another grouping
// would show here.
func TestResumeAcrossParallelism(t *testing.T) {
	ds := paperDS(t, 3000)
	spec := model.DefaultSpec(ds)
	for _, c := range []struct{ from, to int }{{0, 4}, {4, 0}} {
		from, to := resumeCfg(), resumeCfg()
		from.EM.Parallelism = c.from
		to.EM.Parallelism = c.to
		ref, err := Search(ds, spec, from, nil)
		if err != nil {
			t.Fatal(err)
		}
		statePath := filepath.Join(t.TempDir(), "state.json")
		if _, err := Search(ds, spec, from, &SearchOptions{StatePath: statePath}); err != nil {
			t.Fatal(err)
		}
		truncateState(t, statePath, 3)
		resumed, err := Search(ds, spec, to, &SearchOptions{StatePath: statePath})
		if err != nil {
			t.Fatalf("%d -> %d: resume: %v", c.from, c.to, err)
		}
		if !sameTries(resumed.Tries, ref.Tries) || resumed.BestTry != ref.BestTry {
			t.Fatalf("%d -> %d: resumed tries diverged\n%+v\nvs\n%+v", c.from, c.to, resumed.Tries, ref.Tries)
		}
		var got, want bytes.Buffer
		if err := (&Checkpoint{Classification: resumed.Best}).Save(&got); err != nil {
			t.Fatal(err)
		}
		if err := (&Checkpoint{Classification: ref.Best}).Save(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d -> %d: resumed best classification differs from the uninterrupted search", c.from, c.to)
		}
	}
}

// truncateState rewrites the state file keeping only the first n tries and
// recomputing best-so-far from them (as a mid-run snapshot would hold).
func truncateState(t *testing.T, path string, n int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the real struct to stay schema-correct.
	var st stateFileV1
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Completed) < n {
		t.Fatalf("state has only %d tries", len(st.Completed))
	}
	st.Completed = st.Completed[:n]
	// Recompute the best among the kept tries; the embedded Best
	// classification may now be "from the future", so only keep it if its
	// try record survives the truncation.
	best := TryResult{Score: -1e308}
	for _, tr := range st.Completed {
		if !tr.Duplicate && tr.Score > best.Score {
			best = tr
		}
	}
	if st.BestTry != best {
		// The recorded best came from a truncated try: rebuilding it is
		// exactly what a mid-run snapshot would never contain, so emulate
		// the snapshot by keeping the best among kept tries. The stored
		// Best JSON belongs to a kept try only if seeds match.
		st.BestTry = best
		// We cannot reconstruct the classification JSON for `best` here;
		// drop it so the resume rediscovers it. (A real mid-run state file
		// always has Best consistent with Completed; this truncation is
		// harsher than reality, and the search must still recover.)
		st.Best = nil
		st.BestTry = TryResult{}
	}
	if err := (&SearchState{Path: path, file: st}).write(); err != nil {
		t.Fatal(err)
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	ds := paperDS(t, 300)
	cfg := resumeCfg()
	spec := model.DefaultSpec(ds)
	statePath := filepath.Join(t.TempDir(), "state.json")
	if _, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath}); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	if _, err := Search(ds, spec, other, &SearchOptions{StatePath: statePath}); err == nil {
		t.Fatal("mismatched config resumed")
	}
	other = cfg
	other.StartJList = []int{3}
	if _, err := Search(ds, spec, other, &SearchOptions{StatePath: statePath}); err == nil {
		t.Fatal("mismatched start list resumed")
	}
}

func TestResumeRejectsCorruptState(t *testing.T) {
	ds := paperDS(t, 100)
	cfg := resumeCfg()
	statePath := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(statePath, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Search(ds, model.DefaultSpec(ds), cfg, &SearchOptions{StatePath: statePath}); err == nil {
		t.Fatal("corrupt state accepted")
	}
}
