package autoclass

import (
	"sync"
	"testing"
)

func TestNumRowShards(t *testing.T) {
	cases := []struct{ n, want int }{
		{-5, 0}, {0, 0}, {1, 1}, {RowShardSize, 1},
		{RowShardSize + 1, 2}, {3 * RowShardSize, 3}, {3*RowShardSize + 7, 4},
	}
	for _, c := range cases {
		if got := NumRowShards(c.n); got != c.want {
			t.Errorf("NumRowShards(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestRowShardRangesTile(t *testing.T) {
	for _, n := range []int{1, RowShardSize - 1, RowShardSize, RowShardSize + 1, 5*RowShardSize + 13} {
		shards := NumRowShards(n)
		next := 0
		for s := 0; s < shards; s++ {
			lo, hi := RowShardRange(s, n)
			if lo != next || hi <= lo || hi > n {
				t.Fatalf("n=%d shard %d: range [%d,%d) after %d", n, s, lo, hi, next)
			}
			next = hi
		}
		if next != n {
			t.Fatalf("n=%d: shards cover %d rows", n, next)
		}
	}
}

func TestEffectiveParallelism(t *testing.T) {
	for _, c := range []struct{ in, wantMin int }{{0, 1}, {1, 1}, {4, 4}} {
		cfg := Config{Parallelism: c.in}
		if got := cfg.EffectiveParallelism(); got != c.wantMin {
			t.Errorf("Parallelism %d resolves to %d, want %d", c.in, got, c.wantMin)
		}
	}
	cfg := Config{Parallelism: -1}
	if got := cfg.EffectiveParallelism(); got < 1 {
		t.Errorf("negative Parallelism resolves to %d", got)
	}
	if got := (Config{Parallelism: 16}).Workers(3); got != 3 {
		t.Errorf("Workers capped at shard count: got %d", got)
	}
}

func TestParallelForCoversEveryShardOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, shards := range []int{0, 1, 5, 37} {
			var mu sync.Mutex
			hits := make([]int, shards)
			ParallelFor(workers, shards, func(worker, s int) {
				mu.Lock()
				hits[s]++
				mu.Unlock()
			})
			for s, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d shards=%d: shard %d run %d times", workers, shards, s, h)
				}
			}
		}
	}
}

// TestParallelismBitwiseIndependentOfWorkers is the determinism invariant:
// because shard boundaries depend only on the row count and per-shard
// accumulators merge in fixed shard order, every Parallelism value, 0
// included, must produce bit-for-bit identical trajectories — this is
// what keeps the replicated SPMD search coordinated when ranks run
// different worker counts.
func TestParallelismBitwiseIndependentOfWorkers(t *testing.T) {
	ds := paperDS(t, 3*RowShardSize+57)
	run := func(par int) []float64 {
		cfg := DefaultConfig()
		cfg.MaxCycles = 8
		cfg.Parallelism = par
		cls := mustClassification(t, ds, 4)
		eng := mustEngine(t, ds, cls, cfg)
		if err := eng.InitRandom(7); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.History
	}
	want := run(1)
	for _, par := range []int{0, 2, 3, 8, -1} {
		got := run(par)
		if len(got) != len(want) {
			t.Fatalf("Parallelism %d: %d cycles vs %d", par, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Parallelism %d cycle %d: logpost %v != %v (bitwise)", par, i, got[i], want[i])
			}
		}
	}
}
