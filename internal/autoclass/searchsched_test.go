package autoclass

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
)

func TestVariantsMatchSequentialSeedChain(t *testing.T) {
	cfg := quickSearchConfig()
	vs := cfg.Variants()
	if len(vs) != len(cfg.StartJList)*cfg.Tries {
		t.Fatalf("%d variants", len(vs))
	}
	seeds := rng.New(cfg.Seed)
	idx := 0
	for _, startJ := range cfg.StartJList {
		for try := 0; try < cfg.Tries; try++ {
			v := vs[idx]
			want := seeds.Uint64()
			if v.Index != idx || v.StartJ != startJ || v.Try != try || v.Seed != want {
				t.Fatalf("variant %d = %+v, want {%d %d %d %d}", idx, v, idx, startJ, try, want)
			}
			idx++
		}
	}
}

func TestSearchWorkersResolution(t *testing.T) {
	cfg := quickSearchConfig() // 3 × 2 = 6 variants
	for _, tc := range []struct{ p, want int }{
		{0, 1}, {1, 1}, {2, 2}, {6, 6}, {100, 6},
	} {
		cfg.SearchParallelism = tc.p
		if got := cfg.SearchWorkers(); got != tc.want {
			t.Errorf("SearchParallelism=%d resolved to %d, want %d", tc.p, got, tc.want)
		}
	}
	cfg.SearchParallelism = -1
	want := runtime.GOMAXPROCS(0)
	if n := len(cfg.StartJList) * cfg.Tries; want > n {
		want = n
	}
	if got := cfg.SearchWorkers(); got != want {
		t.Errorf("SearchParallelism=-1 resolved to %d, want %d", got, want)
	}
}

// fakeRunner returns a deterministic TrialRunner whose outcome depends only
// on (startJ, seed) — scores collide across seeds (mod 7) so duplicate
// elimination has work to do, and every EMResult field is deterministic so
// results can be compared exactly across worker counts.
func fakeRunner(tb testing.TB) TrialRunner {
	ds := paperDS(tb, 60)
	spec := model.DefaultSpec(ds)
	pr := model.NewPriors(ds, ds.Summarize())
	return func(startJ int, seed uint64) (*Classification, EMResult, error) {
		cls, err := NewClassification(ds, spec, pr, startJ)
		if err != nil {
			return nil, EMResult{}, err
		}
		cls.LogLik = -2000 - float64(seed%13)
		cls.LogPost = -1000 - float64(seed%7)
		em := EMResult{
			Cycles:        int(seed%5) + 1,
			Converged:     true,
			WtsSeconds:    0.25,
			ParamsSeconds: 0.5,
			ApproxSeconds: 0.125,
			InitSeconds:   1,
			ReducedValues: int(seed%11) + 1,
			Reductions:    int(seed%3) + 1,
		}
		return cls, em, nil
	}
}

func sameTries(a, b []TryResult) bool {
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

// TestSearchWithParallelismBitwiseIdentical is the generic-runner half of
// the determinism property: the full SearchResult — including the totals
// fold, whose inputs are deterministic here — is identical at every worker
// count.
func TestSearchWithParallelismBitwiseIdentical(t *testing.T) {
	run := fakeRunner(t)
	cfg := DefaultSearchConfig()
	cfg.StartJList = []int{2, 3}
	cfg.Tries = 6
	ref, err := SearchWith(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dups := 0
	for _, tr := range ref.Tries {
		if tr.Duplicate {
			dups++
		}
	}
	if dups == 0 {
		t.Fatal("synthetic runner produced no duplicates; the property is vacuous")
	}
	for _, workers := range []int{1, 2, 8} {
		c := cfg
		c.SearchParallelism = workers
		res, err := SearchWith(run, c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sameTries(res.Tries, ref.Tries) {
			t.Fatalf("workers=%d: tries diverged\n%+v\nvs\n%+v", workers, res.Tries, ref.Tries)
		}
		if res.BestTry != ref.BestTry {
			t.Fatalf("workers=%d: best try %+v vs %+v", workers, res.BestTry, ref.BestTry)
		}
		if res.Totals.Cycles != ref.Totals.Cycles ||
			res.Totals.WtsSeconds != ref.Totals.WtsSeconds ||
			res.Totals.ParamsSeconds != ref.Totals.ParamsSeconds ||
			res.Totals.ApproxSeconds != ref.Totals.ApproxSeconds ||
			res.Totals.InitSeconds != ref.Totals.InitSeconds ||
			res.Totals.ReducedValues != ref.Totals.ReducedValues ||
			res.Totals.Reductions != ref.Totals.Reductions {
			t.Fatalf("workers=%d: totals diverged: %+v vs %+v", workers, res.Totals, ref.Totals)
		}
	}
}

// TestSearchParallelismBitwiseIdentical is the native-engine half of the
// property (ISSUE 6 satellite): Tries order, duplicate marks and the best
// checkpoint bytes are bitwise identical to the sequential oracle at
// SearchParallelism ∈ {1, 2, 4, 8}.
func TestSearchParallelismBitwiseIdentical(t *testing.T) {
	ds := paperDS(t, 800)
	spec := model.DefaultSpec(ds)
	cfg := quickSearchConfig()
	ref, err := Search(ds, spec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var refBest bytes.Buffer
	if err := (&Checkpoint{Classification: ref.Best}).Save(&refBest); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		c := cfg
		c.SearchParallelism = workers
		res, err := Search(ds, spec, c, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sameTries(res.Tries, ref.Tries) {
			t.Fatalf("workers=%d: tries diverged", workers)
		}
		if res.BestTry != ref.BestTry {
			t.Fatalf("workers=%d: best try diverged", workers)
		}
		if res.Totals.Cycles != ref.Totals.Cycles ||
			res.Totals.ReducedValues != ref.Totals.ReducedValues ||
			res.Totals.Reductions != ref.Totals.Reductions {
			t.Fatalf("workers=%d: deterministic totals diverged", workers)
		}
		var best bytes.Buffer
		if err := (&Checkpoint{Classification: res.Best}).Save(&best); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(best.Bytes(), refBest.Bytes()) {
			t.Fatalf("workers=%d: best checkpoint bytes diverged", workers)
		}
	}
}

func TestSchedulerPromiseOrderClaimsSmallJFirst(t *testing.T) {
	cfg := quickSearchConfig()
	cfg.StartJList = []int{8, 2, 4}
	cfg.Tries = 2
	sched, err := NewSearchScheduler(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantJ := []int{2, 2, 4, 4, 8, 8}
	var claimed []Variant
	for {
		v, ok := sched.Next()
		if !ok {
			break
		}
		claimed = append(claimed, v)
	}
	if len(claimed) != len(wantJ) {
		t.Fatalf("claimed %d variants", len(claimed))
	}
	for i, v := range claimed {
		if v.StartJ != wantJ[i] {
			t.Fatalf("claim %d is J=%d, want %d (promise order)", i, v.StartJ, wantJ[i])
		}
	}
	// Commit in claimed (promise) order; the result must still list tries
	// in schedule order: 8, 8, 2, 2, 4, 4.
	run := fakeRunner(t)
	for _, v := range claimed {
		cls, em, err := run(v.StartJ, v.Seed)
		sched.Commit(v, cls, em, err)
	}
	res, err := sched.Result()
	if err != nil {
		t.Fatal(err)
	}
	scheduleJ := []int{8, 8, 2, 2, 4, 4}
	for i, tr := range res.Tries {
		if tr.StartJ != scheduleJ[i] || tr.Try != i%2 {
			t.Fatalf("committed try %d is J=%d #%d, want J=%d #%d", i, tr.StartJ, tr.Try, scheduleJ[i], i%2)
		}
	}
}

// TestSearchParallelErrorMatchesSequential: an error surfaces at its
// schedule position with the same message the sequential loop produces,
// regardless of worker count.
func TestSearchParallelErrorMatchesSequential(t *testing.T) {
	cfg := DefaultSearchConfig()
	cfg.StartJList = []int{2, 3}
	cfg.Tries = 3
	failSeed := cfg.Variants()[3].Seed
	boom := errors.New("synthetic failure")
	base := fakeRunner(t)
	run := func(startJ int, seed uint64) (*Classification, EMResult, error) {
		if seed == failSeed {
			return nil, EMResult{}, boom
		}
		return base(startJ, seed)
	}
	_, seqErr := SearchWith(run, cfg)
	if seqErr == nil || !errors.Is(seqErr, boom) {
		t.Fatalf("sequential error %v", seqErr)
	}
	for _, workers := range []int{2, 6} {
		c := cfg
		c.SearchParallelism = workers
		_, err := SearchWith(run, c)
		if err == nil || err.Error() != seqErr.Error() {
			t.Fatalf("workers=%d error %q, want %q", workers, err, seqErr)
		}
	}
}

func TestBasinEarlyStop(t *testing.T) {
	// Strongly separated data: restarts with the same start J converge to
	// the same optimum, so late variants flatten inside committed basins.
	ds := paperDS(t, 2000)
	spec := model.DefaultSpec(ds)
	cfg := quickSearchConfig()
	cfg.StartJList = []int{5}
	cfg.Tries = 6
	cfg.EM.MaxCycles = 60
	cfg.SearchParallelism = 3
	cfg.BasinEarlyStop = true
	res, err := Search(ds, spec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best classification")
	}
	stopped := 0
	for _, tr := range res.Tries {
		if tr.EarlyStopped {
			stopped++
			if !tr.Duplicate {
				t.Fatalf("early-stopped try %+v not marked duplicate", tr)
			}
		}
	}
	if res.BestTry.EarlyStopped || res.BestTry.Duplicate {
		t.Fatalf("best try %+v is a cut or duplicate try", res.BestTry)
	}
	t.Logf("early-stopped %d of %d tries", stopped, len(res.Tries))
}

func TestSchedulerRestoreRejectsOversizedState(t *testing.T) {
	cfg := quickSearchConfig()
	sched, err := NewSearchScheduler(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	completed := make([]TryResult, len(cfg.StartJList)*cfg.Tries+1)
	for i := range completed {
		completed[i].Seed = uint64(i)
	}
	if err := sched.restore(completed, nil, TryResult{}, EMResult{}); err == nil {
		t.Fatal("oversized completed list accepted")
	}
}

func TestSearchWithValidatesThroughScheduler(t *testing.T) {
	cfg := quickSearchConfig()
	cfg.Tries = 0
	if _, err := SearchWith(func(int, uint64) (*Classification, EMResult, error) {
		return nil, EMResult{}, fmt.Errorf("unreachable")
	}, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}
