package autoclass

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/model"
)

// recordingObserver collects every TryEvent; safe for the concurrent
// delivery a variant-parallel search produces.
type recordingObserver struct {
	mu     sync.Mutex
	events []TryEvent
}

func (r *recordingObserver) ObserveTry(ev TryEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *recordingObserver) byKind(k TryEventKind) []TryEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []TryEvent
	for _, ev := range r.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// commits returns the commit-kind events in delivery order.
func (r *recordingObserver) commits() []TryEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []TryEvent
	for _, ev := range r.events {
		switch ev.Kind {
		case TryConverged, TryDuplicate, TryEarlyStopped:
			out = append(out, ev)
		}
	}
	return out
}

// The trajectory property: attaching a SearchObserver must leave the
// search result bitwise identical to the unobserved run, sequentially and
// under variant parallelism.
func TestSearchObserverTrajectoryBitwise(t *testing.T) {
	ds := paperDS(t, 400)
	cfg := resumeCfg()
	spec := model.DefaultSpec(ds)
	ref, err := Search(ds, spec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		c := cfg
		c.SearchParallelism = par
		rec := &recordingObserver{}
		res, err := Search(ds, spec, c, &SearchOptions{Observer: rec})
		if err != nil {
			t.Fatal(err)
		}
		if !sameTries(res.Tries, ref.Tries) {
			t.Fatalf("parallelism %d: observed tries diverged from unobserved", par)
		}
		if res.BestTry != ref.BestTry || res.Best.LogPost != ref.Best.LogPost {
			t.Fatalf("parallelism %d: observed best diverged", par)
		}
		if len(rec.events) == 0 {
			t.Fatalf("parallelism %d: observer saw no events", par)
		}
	}
}

// Event-stream shape on the sequential path: one claim per variant, commit
// verdicts strictly in schedule order with monotonically increasing Done,
// kinds and cycle counts matching the recorded tries, and per-try cycle
// events matching each try's cycle count.
func TestSearchObserverEventStream(t *testing.T) {
	ds := paperDS(t, 400)
	cfg := resumeCfg()
	spec := model.DefaultSpec(ds)
	rec := &recordingObserver{}
	res, err := Search(ds, spec, cfg, &SearchOptions{Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	total := len(cfg.Variants())

	claims := rec.byKind(TryClaimed)
	if len(claims) != total {
		t.Fatalf("%d claim events, want %d", len(claims), total)
	}
	for _, ev := range claims {
		if ev.Total != total {
			t.Fatalf("claim Total = %d, want %d", ev.Total, total)
		}
	}

	commits := rec.commits()
	if len(commits) != total {
		t.Fatalf("%d commit events, want %d", len(commits), total)
	}
	for i, ev := range commits {
		if ev.Index != i {
			t.Fatalf("commit %d has Index %d; commits must arrive in schedule order", i, ev.Index)
		}
		if ev.Done != i+1 {
			t.Fatalf("commit %d reports Done=%d, want %d", i, ev.Done, i+1)
		}
		tr := res.Tries[i]
		if ev.Cycles != tr.Cycles {
			t.Errorf("commit %d Cycles=%d, try recorded %d", i, ev.Cycles, tr.Cycles)
		}
		if ev.Score != tr.Score || ev.Seed != tr.Seed || ev.StartJ != tr.StartJ {
			t.Errorf("commit %d fields diverge from try record", i)
		}
		switch {
		case tr.EarlyStopped:
			if ev.Kind != TryEarlyStopped {
				t.Errorf("commit %d kind %v for early-stopped try", i, ev.Kind)
			}
		case tr.Duplicate:
			if ev.Kind != TryDuplicate {
				t.Errorf("commit %d kind %v for duplicate try", i, ev.Kind)
			}
		default:
			if ev.Kind != TryConverged {
				t.Errorf("commit %d kind %v for kept try", i, ev.Kind)
			}
		}
	}

	// Done is monotonically non-decreasing over the claim/commit stream
	// (the live progress guarantee; TryCycle events leave Done zero), and
	// BestScore never regresses across commits.
	rec.mu.Lock()
	events := append([]TryEvent(nil), rec.events...)
	rec.mu.Unlock()
	lastDone := 0
	for i, ev := range events {
		if ev.Kind == TryCycle {
			continue
		}
		if ev.Done < lastDone {
			t.Fatalf("event %d (%v): Done regressed %d -> %d", i, ev.Kind, lastDone, ev.Done)
		}
		lastDone = ev.Done
	}
	for i := 1; i < len(commits); i++ {
		if commits[i].BestScore < commits[i-1].BestScore {
			t.Fatalf("BestScore regressed at commit %d", i)
		}
	}

	// Cycle events per schedule index match the recorded cycle counts.
	cyclesByIndex := make(map[int]int)
	for _, ev := range rec.byKind(TryCycle) {
		cyclesByIndex[ev.Index]++
	}
	for i, tr := range res.Tries {
		if cyclesByIndex[i] != tr.Cycles {
			t.Errorf("try %d: %d cycle events, recorded %d cycles", i, cyclesByIndex[i], tr.Cycles)
		}
	}
}

// Resuming a checkpointed search: the observer's Done counts include the
// restored prefix, and only the unfinished suffix is claimed.
func TestSearchObserverResumeDoneIncludesPrefix(t *testing.T) {
	ds := paperDS(t, 400)
	cfg := resumeCfg()
	spec := model.DefaultSpec(ds)
	statePath := filepath.Join(t.TempDir(), "state.json")
	if _, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath}); err != nil {
		t.Fatal(err)
	}
	const keep = 2
	truncateState(t, statePath, keep)

	rec := &recordingObserver{}
	res, err := Search(ds, spec, cfg, &SearchOptions{StatePath: statePath, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	total := len(cfg.Variants())
	if len(res.Tries) != total {
		t.Fatalf("resumed search recorded %d tries, want %d", len(res.Tries), total)
	}
	claims := rec.byKind(TryClaimed)
	if len(claims) != total-keep {
		t.Fatalf("%d claims after resume, want %d (restored tries must not be re-claimed)", len(claims), total-keep)
	}
	if claims[0].Done != keep {
		t.Fatalf("first resumed claim reports Done=%d, want %d (the restored prefix)", claims[0].Done, keep)
	}
	commits := rec.commits()
	if len(commits) != total-keep {
		t.Fatalf("%d commits after resume, want %d", len(commits), total-keep)
	}
	for i, ev := range commits {
		if ev.Index != keep+i {
			t.Fatalf("resumed commit %d has Index %d, want %d", i, ev.Index, keep+i)
		}
		if ev.Done != keep+i+1 {
			t.Fatalf("resumed commit %d reports Done=%d, want %d", i, ev.Done, keep+i+1)
		}
	}
}

// The disabled path: a scheduler without an observer must not allocate in
// its notify hook.
func TestNotifyTryDisabledAllocs(t *testing.T) {
	sched, err := NewSearchScheduler(quickSearchConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ev := TryEvent{Kind: TryClaimed, Total: 6}
	if n := testing.AllocsPerRun(100, func() { sched.notifyTry(ev) }); n != 0 {
		t.Errorf("nil-observer notifyTry allocations = %v, want 0", n)
	}
}
