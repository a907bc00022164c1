package pautoclass

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/autoclass"
	"repro/internal/model"
	"repro/internal/mpi"
)

// assertMidTryState fails unless the state file at path holds a mid-try
// snapshot — the case whose totals a resume must restore.
func assertMidTryState(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		InTry json.RawMessage `json:"in_try"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.InTry) == 0 {
		t.Fatal("the interruption left no mid-try snapshot; the test does not exercise a mid-try resume")
	}
}

// TestSPMDResumedTotalsMatchUninterrupted is the SPMD counterpart of the
// sequential TestResumedTotalsMatchUninterrupted: a search resumed from a
// mid-try snapshot — after a crashed rank or a cooperative stop — reports
// the uninterrupted run's Totals, because the snapshot carries the
// interrupted try's earlier cycles and reducer traffic.
func TestSPMDResumedTotalsMatchUninterrupted(t *testing.T) {
	const p = 3
	ds := paperDS(t, 240)
	cfg := quickSearchConfig()
	ref := runParallelSearch(t, ds, p, cfg, DefaultOptions())
	resume := func(t *testing.T, path string) {
		t.Helper()
		assertMidTryState(t, path)
		res := runParallelSearch(t, ds, p, cfg, checkpointed(DefaultOptions(), Checkpoint{Path: path}))
		if !reflect.DeepEqual(res.Tries, ref.Tries) {
			t.Fatalf("resumed tries diverged:\nref:    %+v\nresume: %+v", ref.Tries, res.Tries)
		}
		rt, ft := res.Totals, ref.Totals
		if rt.Cycles != ft.Cycles {
			t.Errorf("Cycles %d vs %d", rt.Cycles, ft.Cycles)
		}
		if rt.Reductions != ft.Reductions {
			t.Errorf("Reductions %d vs %d", rt.Reductions, ft.Reductions)
		}
		if rt.ReducedValues != ft.ReducedValues {
			t.Errorf("ReducedValues %d vs %d", rt.ReducedValues, ft.ReducedValues)
		}
	}

	t.Run("kill", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "search.ckpt")
		const victim = 1
		plans := map[int]mpi.FaultPlan{
			victim: {Faults: []mpi.Fault{{Op: "send", Peer: -1, After: 150}}},
		}
		errs, err := rankErrors(p, mpi.RunConfig{Faults: plans}, func(c *mpi.Comm) error {
			_, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(DefaultOptions(), Checkpoint{Path: path, Every: 2}))
			return err
		})
		if errs[victim] == nil {
			t.Fatal("victim completed the search; fault budget too large to interrupt it")
		}
		if err == nil {
			t.Fatal("RunWith reported no failure")
		}
		resume(t, path)
	})

	t.Run("interrupt", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "search.ckpt")
		err := mpi.Run(p, func(c *mpi.Comm) error {
			polls := 0
			_, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(DefaultOptions(), Checkpoint{
				Path: path,
				Interrupt: func() bool {
					if c.Rank() != 1 {
						return false
					}
					polls++
					return polls > 3
				},
			}))
			if !errors.Is(err, ErrInterrupted) {
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		resume(t, path)
	})
}

// The sequential and SPMD engines derive priors differently, so their
// trajectories differ in the last bits: neither may resume the other's
// state file.
func TestStateFileRefusesOtherEngine(t *testing.T) {
	const p = 2
	ds := paperDS(t, 240)
	spec := model.DefaultSpec(ds)
	cfg := quickSearchConfig()
	dir := t.TempDir()

	spmd := filepath.Join(dir, "spmd.ckpt")
	runParallelSearch(t, ds, p, cfg, checkpointed(DefaultOptions(), Checkpoint{Path: spmd}))
	_, err := autoclass.Search(ds, spec, cfg, &autoclass.SearchOptions{StatePath: spmd})
	if err == nil || !strings.Contains(err.Error(), "engine spmd vs sequential") {
		t.Fatalf("sequential resume of an SPMD state: %v", err)
	}

	seq := filepath.Join(dir, "seq.ckpt")
	if _, err := autoclass.Search(ds, spec, cfg, &autoclass.SearchOptions{StatePath: seq}); err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(p, func(c *mpi.Comm) error {
		_, err := Search(c, ds, spec, cfg, checkpointed(DefaultOptions(), Checkpoint{Path: seq}))
		if err == nil || !strings.Contains(err.Error(), "engine sequential vs spmd") {
			t.Errorf("rank %d: SPMD resume of a sequential state: %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// SPMD scores differ in the last bits across rank counts — the ranks'
// partial sums reduce in another order — so a state file interrupted at
// two ranks must not resume at three, while it still resumes at two.
func TestStateFileRefusesOtherRankCount(t *testing.T) {
	ds := paperDS(t, 240)
	spec := model.DefaultSpec(ds)
	cfg := quickSearchConfig()
	path := filepath.Join(t.TempDir(), "search.ckpt")
	err := mpi.Run(2, func(c *mpi.Comm) error {
		polls := 0
		_, err := Search(c, ds, spec, cfg, checkpointed(DefaultOptions(), Checkpoint{
			Path:      path,
			Interrupt: func() bool { polls++; return polls > 3 },
		}))
		if !errors.Is(err, ErrInterrupted) {
			return errors.Join(errors.New("want ErrInterrupted"), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(3, func(c *mpi.Comm) error {
		_, err := Search(c, ds, spec, cfg, checkpointed(DefaultOptions(), Checkpoint{Path: path}))
		if err == nil || !strings.Contains(err.Error(), "ranks 2 vs 3") {
			t.Errorf("rank %d: a 2-rank state resumed at 3 ranks: %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := runParallelSearch(t, ds, 2, cfg, DefaultOptions())
	res := runParallelSearch(t, ds, 2, cfg, checkpointed(DefaultOptions(), Checkpoint{Path: path}))
	if !reflect.DeepEqual(res.Tries, ref.Tries) {
		t.Fatalf("resumed tries diverged:\nref:    %+v\nresume: %+v", ref.Tries, res.Tries)
	}
}

// An SPMD state file written before the state formats merged, stopped
// inside its second try, resumes bitwise to the uninterrupted search.
func TestLegacySPMDStateResumes(t *testing.T) {
	const p = 2
	ds := paperDS(t, 240)
	cfg := autoclass.DefaultSearchConfig()
	cfg.StartJList = []int{2, 5}
	cfg.Tries = 2
	cfg.EM.MaxCycles = 40
	ref := runParallelSearch(t, ds, p, cfg, DefaultOptions())

	raw, err := os.ReadFile(filepath.Join("..", "autoclass", "testdata", "legacy_spmd_state.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "search.ckpt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	assertMidTryState(t, path)
	res := runParallelSearch(t, ds, p, cfg, checkpointed(DefaultOptions(), Checkpoint{Path: path}))
	if !reflect.DeepEqual(res.Tries, ref.Tries) {
		t.Fatalf("resumed tries diverged:\nref:    %+v\nresume: %+v", ref.Tries, res.Tries)
	}
	if !bytes.Equal(clsBytes(t, res.Best), clsBytes(t, ref.Best)) {
		t.Error("resumed best classification differs from the uninterrupted search")
	}
	// The legacy snapshot predates the reducer counts, so only the cycle
	// total is whole.
	if res.Totals.Cycles != ref.Totals.Cycles {
		t.Errorf("Totals.Cycles %d vs %d", res.Totals.Cycles, ref.Totals.Cycles)
	}
}
