package autoclass

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
)

// The state files under testdata were written before the state formats
// merged: legacy_sequential_state.json by the sequential resumable search,
// killed at its third try, and legacy_spmd_state.json by a 2-rank
// checkpointed SPMD search, stopped inside its second try (in_try). Both
// cover legacyStateConfig over paperDS(240).

func legacyStateConfig() SearchConfig {
	cfg := DefaultSearchConfig()
	cfg.StartJList = []int{2, 5}
	cfg.Tries = 2
	cfg.EM.MaxCycles = 40
	return cfg
}

// copyFixture copies a testdata state file to a scratch path, so a resume
// may rewrite it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A sequential state file written before the merge resumes bitwise to the
// uninterrupted search, and is rewritten in the merged shape.
func TestLegacySequentialStateResumes(t *testing.T) {
	ds := paperDS(t, 240)
	spec := model.DefaultSpec(ds)
	cfg := legacyStateConfig()
	ref, err := Search(ds, spec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := copyFixture(t, "legacy_sequential_state.json")
	res, err := Search(ds, spec, cfg, &SearchOptions{StatePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !sameTries(res.Tries, ref.Tries) || res.BestTry != ref.BestTry {
		t.Fatalf("resumed tries diverged\n%+v\nvs\n%+v", res.Tries, ref.Tries)
	}
	var got, want bytes.Buffer
	if err := (&Checkpoint{Classification: res.Best}).Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := (&Checkpoint{Classification: ref.Best}).Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("resumed best classification differs from the uninterrupted search")
	}
	if res.Totals.Cycles != ref.Totals.Cycles {
		t.Errorf("Totals.Cycles %d vs %d", res.Totals.Cycles, ref.Totals.Cycles)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f stateFileV1
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Engine != EngineSequential || f.N != ds.N() {
		t.Errorf("rewritten state records engine %q, n %d", f.Engine, f.N)
	}
}

// engineRanks is the rank count a test loads a state file with: two for
// the SPMD engine, none for the sequential one.
func engineRanks(e SearchEngine) int {
	if e == EngineSPMD {
		return 2
	}
	return 0
}

// A file written before the engine was recorded is attributed by its
// shape — n marks the SPMD engine — and refused by the other engine.
func TestLegacyStateEngineInferred(t *testing.T) {
	ds := paperDS(t, 240)
	cfg := legacyStateConfig()
	for name, want := range map[string]SearchEngine{
		"legacy_sequential_state.json": EngineSequential,
		"legacy_spmd_state.json":       EngineSPMD,
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSearchState(raw, cfg, ds, want, engineRanks(want)); err != nil {
			t.Errorf("%s: refused by its own engine: %v", name, err)
		}
		other := EngineSPMD
		if want == EngineSPMD {
			other = EngineSequential
		}
		_, err = LoadSearchState(raw, cfg, ds, other, engineRanks(other))
		if err == nil || !strings.Contains(err.Error(), "engine") {
			t.Errorf("%s: resumed by the %s engine: %v", name, other, err)
		}
	}
	// The SPMD file's in_try belongs to the SPMD engine alone.
	path := copyFixture(t, "legacy_spmd_state.json")
	if _, err := Search(ds, model.DefaultSpec(ds), cfg, &SearchOptions{StatePath: path}); err == nil {
		t.Fatal("sequential search resumed an SPMD state file")
	}
}

// A state file records the row count it was written for: a finished
// search over 240 rows must not be returned as the result for 300.
func TestResumeRejectsOtherDatasetSize(t *testing.T) {
	cfg := resumeCfg()
	statePath := filepath.Join(t.TempDir(), "state.json")
	small := paperDS(t, 240)
	if _, err := Search(small, model.DefaultSpec(small), cfg, &SearchOptions{StatePath: statePath}); err != nil {
		t.Fatal(err)
	}
	big := paperDS(t, 300)
	_, err := Search(big, model.DefaultSpec(big), cfg, &SearchOptions{StatePath: statePath})
	if err == nil {
		t.Fatal("a 240-row state resumed for 300 rows")
	}
	if !strings.Contains(err.Error(), "n 240 vs 300") {
		t.Fatalf("error %q does not name n", err)
	}
}

// FuzzSearchState: whatever bytes sit in a state file, loading them for
// either engine returns an error or a state that resumes into a complete
// search on the derived seed chain — never a panic.
func FuzzSearchState(f *testing.F) {
	for _, name := range []string{"legacy_sequential_state.json", "legacy_spmd_state.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	ds := paperDS(f, 240)
	cfg := legacyStateConfig()
	vs := cfg.Variants()
	run := fakeRunner(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, engine := range []SearchEngine{EngineSequential, EngineSPMD} {
			st, err := LoadSearchState(raw, cfg, ds, engine, engineRanks(engine))
			if err != nil {
				continue
			}
			sched, err := NewSearchScheduler(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sched.Run(st, func(int) VariantRunner {
				return func(v Variant) (*Classification, EMResult, error) { return run(v.StartJ, v.Seed) }
			})
			if err != nil {
				continue
			}
			if len(res.Tries) != len(vs) || res.Best == nil {
				t.Fatalf("%s resume: %d of %d tries, best %v", engine, len(res.Tries), len(vs), res.Best != nil)
			}
			for i, tr := range res.Tries {
				if tr.Seed != vs[i].Seed {
					t.Fatalf("%s resume: try %d seed %d off the chain", engine, i, tr.Seed)
				}
			}
		}
	})
}
