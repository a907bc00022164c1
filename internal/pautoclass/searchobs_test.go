package pautoclass

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/autoclass"
	"repro/internal/model"
	"repro/internal/mpi"
)

// tryRecorder collects every TryEvent delivered to it; safe for concurrent
// use so one instance can be handed to every rank of an mpi.Run group.
type tryRecorder struct {
	mu     sync.Mutex
	events []autoclass.TryEvent
}

func (r *tryRecorder) ObserveTry(ev autoclass.TryEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *tryRecorder) byKind(k autoclass.TryEventKind) []autoclass.TryEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []autoclass.TryEvent
	for _, ev := range r.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

func (r *tryRecorder) commits() []autoclass.TryEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []autoclass.TryEvent
	for _, ev := range r.events {
		switch ev.Kind {
		case autoclass.TryConverged, autoclass.TryDuplicate, autoclass.TryEarlyStopped:
			out = append(out, ev)
		}
	}
	return out
}

func (r *tryRecorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// A search observer handed to every rank of a parallel Search must leave
// the trajectory bitwise identical and emit each lifecycle event exactly
// once (rank 0 only), not once per rank.
func TestParallelSearchObserverOncePerEvent(t *testing.T) {
	const p = 2
	ds := paperDS(t, 240)
	cfg := quickSearchConfig()
	ref := runParallelSearch(t, ds, p, cfg, DefaultOptions())
	refBest := clsBytes(t, ref.Best)

	rec := &tryRecorder{}
	opts := DefaultOptions()
	opts.SearchObs = rec // same Options on every rank, as the daemon does
	res := runParallelSearch(t, ds, p, cfg, opts)

	if !bytes.Equal(clsBytes(t, res.Best), refBest) {
		t.Error("observed parallel search found a different best classification")
	}
	if !reflect.DeepEqual(res.Tries, ref.Tries) {
		t.Errorf("observed parallel search tries diverged:\nref: %+v\nobs: %+v", ref.Tries, res.Tries)
	}

	total := len(cfg.Variants())
	if claims := rec.byKind(autoclass.TryClaimed); len(claims) != total {
		t.Fatalf("%d claim events for %d variants over %d ranks; events must be emitted once, not per rank", len(claims), total, p)
	}
	commits := rec.commits()
	if len(commits) != total {
		t.Fatalf("%d commit events, want %d", len(commits), total)
	}
	for i, ev := range commits {
		if ev.Index != i {
			t.Errorf("commit %d has Index %d; commits must arrive in schedule order", i, ev.Index)
		}
		if ev.Done != i+1 {
			t.Errorf("commit %d reports Done=%d, want %d", i, ev.Done, i+1)
		}
		tr := res.Tries[i]
		if ev.Cycles != tr.Cycles || ev.Seed != tr.Seed || ev.StartJ != tr.StartJ {
			t.Errorf("commit %d fields diverge from try record", i)
		}
	}
	// Rank 0 adapts the engine cycle stream too: one TryCycle event per
	// recorded EM cycle.
	wantCycles := 0
	for _, tr := range res.Tries {
		wantCycles += tr.Cycles
	}
	if got := len(rec.byKind(autoclass.TryCycle)); got != wantCycles {
		t.Errorf("%d cycle events, tries recorded %d cycles", got, wantCycles)
	}
}

// A checkpointed Search with an observer on every rank: same trajectory as
// the plain parallel search, events once per lifecycle point.
func TestSearchCheckpointedObserver(t *testing.T) {
	const p = 2
	ds := paperDS(t, 240)
	cfg := quickSearchConfig()
	ref := runParallelSearch(t, ds, p, cfg, DefaultOptions())
	refBest := clsBytes(t, ref.Best)

	rec := &tryRecorder{}
	opts := DefaultOptions()
	opts.SearchObs = rec
	path := filepath.Join(t.TempDir(), "search.ckpt")
	var res *autoclass.SearchResult
	err := mpi.Run(p, func(c *mpi.Comm) error {
		r, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(opts, Checkpoint{Path: path, Every: 2}))
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
	if !bytes.Equal(clsBytes(t, res.Best), refBest) {
		t.Error("observed checkpointed search found a different best classification")
	}
	if !reflect.DeepEqual(res.Tries, ref.Tries) {
		t.Errorf("observed checkpointed search tries diverged:\nref: %+v\nobs: %+v", ref.Tries, res.Tries)
	}

	total := len(cfg.Variants())
	if claims := rec.byKind(autoclass.TryClaimed); len(claims) != total {
		t.Fatalf("%d claim events for %d variants over %d ranks; events must be emitted once, not per rank", len(claims), total, p)
	}
	commits := rec.commits()
	if len(commits) != total {
		t.Fatalf("%d commit events, want %d", len(commits), total)
	}
	for i, ev := range commits {
		if ev.Index != i {
			t.Errorf("commit %d has Index %d, want schedule order", i, ev.Index)
		}
		if ev.Done != i+1 {
			t.Errorf("commit %d reports Done=%d, want %d", i, ev.Done, i+1)
		}
	}

	// A finished search re-launched against its state file restores the
	// result without re-running — and therefore without emitting any events.
	before := rec.len()
	err = mpi.Run(p, func(c *mpi.Comm) error {
		_, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(opts, Checkpoint{Path: path, Every: 2}))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if after := rec.len(); after != before {
		t.Errorf("re-launch of a finished search emitted %d events; restored tries must not re-emit", after-before)
	}
}

// The daemon's restart-until-done loop with an observer: each resumed
// attempt's first claim reports a Done count equal to the restored prefix,
// every schedule index commits exactly once across all attempts, and the
// final classification matches the uninterrupted run bit for bit.
func TestSearchCheckpointedObserverResumeDone(t *testing.T) {
	const p = 2
	ds := paperDS(t, 240)
	cfg := quickSearchConfig()
	ref := runParallelSearch(t, ds, p, cfg, DefaultOptions())

	path := filepath.Join(t.TempDir(), "search.ckpt")
	var allCommits []autoclass.TryEvent
	var final *autoclass.SearchResult
	for attempt := 0; attempt < 100 && final == nil; attempt++ {
		rec := &tryRecorder{}
		opts := DefaultOptions()
		opts.SearchObs = rec
		err := mpi.Run(p, func(c *mpi.Comm) error {
			cycles := 0
			ck := Checkpoint{Path: path, Interrupt: func() bool {
				cycles++
				return cycles > 5
			}}
			res, err := Search(c, ds, model.DefaultSpec(ds), cfg, checkpointed(opts, ck))
			if errors.Is(err, ErrInterrupted) {
				return nil
			}
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				final = res
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if claims := rec.byKind(autoclass.TryClaimed); len(claims) > 0 {
			if got, want := claims[0].Done, len(allCommits); got != want {
				t.Fatalf("attempt %d: first claim reports Done=%d, want %d (the restored prefix)", attempt, got, want)
			}
			if got, want := claims[0].Index, len(allCommits); got != want {
				t.Fatalf("attempt %d: first claim is for Index %d, want %d (first unfinished try)", attempt, got, want)
			}
		}
		allCommits = append(allCommits, rec.commits()...)
	}
	if final == nil {
		t.Fatal("search never completed across 100 interrupted attempts")
	}
	total := len(cfg.Variants())
	if len(allCommits) != total {
		t.Fatalf("%d commit events across all attempts, want %d (restored tries must not re-commit)", len(allCommits), total)
	}
	for i, ev := range allCommits {
		if ev.Index != i {
			t.Errorf("commit %d has Index %d; each try commits exactly once in order", i, ev.Index)
		}
		if ev.Done != i+1 {
			t.Errorf("commit %d reports Done=%d, want %d", i, ev.Done, i+1)
		}
	}
	if !bytes.Equal(clsBytes(t, final.Best), clsBytes(t, ref.Best)) {
		t.Error("interrupt-riddled observed search found a different best classification")
	}
	if !reflect.DeepEqual(final.Tries, ref.Tries) {
		t.Errorf("interrupt-riddled observed search tries diverged:\nref: %+v\ngot: %+v", ref.Tries, final.Tries)
	}
}
