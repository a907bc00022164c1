package autoclass

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/model"
)

func quickSearchConfig() SearchConfig {
	cfg := DefaultSearchConfig()
	cfg.StartJList = []int{2, 4, 8}
	cfg.Tries = 2
	cfg.EM.MaxCycles = 40
	return cfg
}

func TestSearchFindsPlantedJ(t *testing.T) {
	ds := paperDS(t, 3000)
	cfg := quickSearchConfig()
	cfg.StartJList = []int{2, 5, 8}
	res, err := Search(ds, model.DefaultSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best classification")
	}
	// The paper mixture has 5 clusters; the search should settle on 4–6.
	if j := res.Best.J(); j < 4 || j > 6 {
		t.Fatalf("best J=%d, expected about 5", j)
	}
	if res.BestTry.Score != res.Best.Score() {
		t.Fatalf("best try score %v != classification score %v", res.BestTry.Score, res.Best.Score())
	}
}

// TestSearchTriesShareOneView: every try of a sequential search reads one
// view of the dataset, so a try copies none of the data. Over 100,000 rows
// three extra tries must allocate less than one copy of the columns.
func TestSearchTriesShareOneView(t *testing.T) {
	ds := paperDS(t, 100000)
	allocated := func(tries int) int64 {
		cfg := DefaultSearchConfig()
		cfg.StartJList = []int{4}
		cfg.Tries = tries
		cfg.EM.MaxCycles = 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Search(ds, model.DefaultSpec(ds), cfg, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	one, four := allocated(1), allocated(4)
	if extra, copyBytes := four-one, int64(ds.N()*ds.NumAttrs()*8); extra >= copyBytes {
		t.Errorf("3 extra tries allocated %d B, a column copy is %d B (1 try: %d B, 4 tries: %d B)", extra, copyBytes, one, four)
	}
}

func TestSearchDeterministic(t *testing.T) {
	ds := paperDS(t, 800)
	cfg := quickSearchConfig()
	a, err := Search(ds, model.DefaultSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(ds, model.DefaultSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.LogPost != b.Best.LogPost || a.BestTry.Seed != b.BestTry.Seed {
		t.Fatal("same-seed searches diverged")
	}
	if len(a.Tries) != len(b.Tries) {
		t.Fatal("try counts differ")
	}
}

func TestSearchRecordsAllTries(t *testing.T) {
	ds := paperDS(t, 500)
	cfg := quickSearchConfig()
	res, err := Search(ds, model.DefaultSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := len(cfg.StartJList) * cfg.Tries
	if len(res.Tries) != want {
		t.Fatalf("recorded %d tries, want %d", len(res.Tries), want)
	}
	for _, tr := range res.Tries {
		if tr.FinalJ < 1 || tr.FinalJ > tr.StartJ {
			t.Fatalf("try %+v has impossible FinalJ", tr)
		}
		if tr.Cycles < 1 {
			t.Fatalf("try %+v ran no cycles", tr)
		}
	}
	if res.Totals.Cycles < want {
		t.Fatalf("totals cycles %d", res.Totals.Cycles)
	}
	if res.Totals.WtsSeconds <= 0 || res.Totals.ParamsSeconds <= 0 {
		t.Fatal("phase timings not accumulated")
	}
}

// TestPhaseTable: the §3.1 table renders the four phases in paper order
// with their shares of the phase sum, the cycle count as the base_cycle
// phases' calls and the try count as initialization's.
func TestPhaseTable(t *testing.T) {
	r := EMResult{Cycles: 40, WtsSeconds: 6, ParamsSeconds: 3, ApproxSeconds: 0.5, InitSeconds: 0.5}
	lines := strings.Split(strings.TrimRight(r.PhaseTable(3), "\n"), "\n")
	want := [][]string{
		{"phase", "seconds", "share", "calls"},
		{PhaseWts, "6.000000", "60.00%", "40"},
		{PhaseParams, "3.000000", "30.00%", "40"},
		{PhaseApprox, "0.500000", "5.00%", "40"},
		{PhaseInit, "0.500000", "5.00%", "3"},
		{"total", "10.000000", "100.00%"},
	}
	if len(lines) != len(want) {
		t.Fatalf("table has %d lines, want %d:\n%s", len(lines), len(want), r.PhaseTable(3))
	}
	for i, line := range lines {
		if got := strings.Fields(line); !slices.Equal(got, want[i]) {
			t.Errorf("line %d = %q, want %q", i, got, want[i])
		}
	}
	if empty := (&EMResult{}).PhaseTable(0); !strings.Contains(empty, "0.00%") {
		t.Errorf("empty totals: shares not zero:\n%s", empty)
	}
}

func TestSearchDuplicateElimination(t *testing.T) {
	// On strongly separated data, restarts with the same start J usually
	// converge to the same optimum: at least one duplicate should appear
	// with several tries.
	ds := paperDS(t, 2000)
	cfg := quickSearchConfig()
	cfg.StartJList = []int{5}
	cfg.Tries = 4
	res, err := Search(ds, model.DefaultSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dups := 0
	for _, tr := range res.Tries {
		if tr.Duplicate {
			dups++
		}
	}
	if dups == 0 {
		t.Log("no duplicates found (acceptable but unusual on separated data)")
	}
	// The best try must never be a duplicate.
	if res.BestTry.Duplicate {
		t.Fatal("best try flagged duplicate")
	}
}

func TestSearchValidation(t *testing.T) {
	ds := paperDS(t, 100)
	spec := model.DefaultSpec(ds)
	for name, mutate := range map[string]func(*SearchConfig){
		"empty-list": func(c *SearchConfig) { c.StartJList = nil },
		"zero-j":     func(c *SearchConfig) { c.StartJList = []int{0} },
		"no-tries":   func(c *SearchConfig) { c.Tries = 0 },
		"neg-tol":    func(c *SearchConfig) { c.DupScoreTol = -1 },
		"bad-em":     func(c *SearchConfig) { c.EM.MaxCycles = 0 },
	} {
		cfg := quickSearchConfig()
		mutate(&cfg)
		if _, err := Search(ds, spec, cfg, nil); err == nil {
			t.Errorf("config %q accepted", name)
		}
	}
	empty, _ := datagen.Paper(0, 1)
	if _, err := Search(empty, spec, quickSearchConfig(), nil); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestSearchWithRunnerErrorPropagates(t *testing.T) {
	boom := fmt.Errorf("runner failed")
	runner := func(startJ int, seed uint64) (*Classification, EMResult, error) {
		return nil, EMResult{}, boom
	}
	cfg := quickSearchConfig()
	if _, err := SearchWith(runner, cfg); err == nil {
		t.Fatal("runner error swallowed")
	}
}

func TestPaperStartJListMatchesPaper(t *testing.T) {
	want := []int{2, 4, 8, 16, 24, 50, 64}
	if len(PaperStartJList) != len(want) {
		t.Fatalf("start_j_list %v", PaperStartJList)
	}
	for i, v := range want {
		if PaperStartJList[i] != v {
			t.Fatalf("start_j_list %v, want %v", PaperStartJList, want)
		}
	}
}
