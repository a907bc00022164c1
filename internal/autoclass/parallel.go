package autoclass

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Hybrid intra-rank parallelism.
//
// The paper parallelizes AutoClass *across* ranks with message passing but
// leaves each rank's base_cycle strictly sequential. On multicore hardware
// that idles most of a node, so the engine also supports a shared-memory
// execution mode inside every rank: the local partition's rows are sharded
// and the two data-parallel phases — the E-step of update_wts and the
// sufficient-statistics accumulation of update_parameters — run on a pool
// of worker goroutines.
//
// Determinism is the invariant the SPMD search relies on: every rank must
// keep feeding bitwise-reproducible local values into the group Allreduce.
// Floating-point addition is not associative, so the shard grid is fixed —
// boundaries depend only on the local row count, never on the worker count
// — and the per-shard accumulators are merged in ascending shard order
// after all workers finish. Every pass runs this grid — one worker is
// the same loop with no goroutines — so the reduced values are bitwise
// identical for every Parallelism value, no matter how many workers ran
// or how the scheduler interleaved them.

// RowShardSize is the fixed shard width (rows) of the deterministic
// parallel path. It is a compile-time constant on purpose: shard boundaries
// must not depend on configuration, or two runs with different worker
// counts would merge partial sums in different groupings and diverge by
// floating-point reassociation.
const RowShardSize = 1024

// NumRowShards returns how many fixed-size shards cover n rows.
func NumRowShards(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + RowShardSize - 1) / RowShardSize
}

// RowShardRange returns the half-open row range [lo, hi) of shard s over n
// rows.
func RowShardRange(s, n int) (lo, hi int) {
	lo = s * RowShardSize
	hi = lo + RowShardSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// EffectiveParallelism resolves the Parallelism knob to a worker count:
// 0 and 1 mean one worker, negative means runtime.GOMAXPROCS(0), any other
// value is used as-is.
func (c Config) EffectiveParallelism() int {
	p := c.Parallelism
	if p < 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Workers returns the size of the worker pool for a phase covering the
// given number of shards: the resolved Parallelism, capped by the shard
// count (extra workers would only spin on an empty queue).
func (c Config) Workers(shards int) int {
	p := c.EffectiveParallelism()
	if p > shards && shards > 0 {
		p = shards
	}
	return p
}

// ParallelFor executes fn(worker, shard) for every shard index in [0,
// shards) on a pool of `workers` goroutines. Shards are claimed from an
// atomic counter, so the assignment of shards to workers is scheduling-
// dependent — fn must write only to per-shard (or per-worker) state, and
// any order-sensitive merge belongs to the caller, after ParallelFor
// returns. With workers <= 1 it degenerates to an inline loop with no
// goroutines.
//
// It is exported for the alternative engines in package pautoclass that
// mirror the hybrid execution mode.
func ParallelFor(workers, shards int, fn func(worker, shard int)) {
	if shards <= 0 {
		return
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			fn(0, s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				fn(worker, s)
			}
		}(w)
	}
	wg.Wait()
}

// shardScratch hands out per-shard accumulator buffers backed by one flat
// allocation that is reused across cycles (the buffers are zeroed on every
// call). One scratch serves both phases of a cycle because they never
// overlap in time.
type shardScratch struct {
	flat []float64
	bufs [][]float64
}

// get returns `shards` zeroed buffers of `width` float64s each.
func (sc *shardScratch) get(shards, width int) [][]float64 {
	need := shards * width
	if cap(sc.flat) < need {
		sc.flat = make([]float64, need)
	}
	flat := sc.flat[:need]
	for i := range flat {
		flat[i] = 0
	}
	if cap(sc.bufs) < shards {
		sc.bufs = make([][]float64, shards)
	}
	bufs := sc.bufs[:shards]
	for s := 0; s < shards; s++ {
		bufs[s] = flat[s*width : (s+1)*width]
	}
	return bufs
}

// mergeShards folds the per-shard buffers into dst in ascending shard
// order — the fixed-order reduction that keeps the parallel path
// deterministic.
func mergeShards(dst []float64, bufs [][]float64) {
	for _, buf := range bufs {
		for k, v := range buf {
			dst[k] += v
		}
	}
}
