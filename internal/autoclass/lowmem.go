package autoclass

import (
	"errors"
	"fmt"
	"time"
)

// The fused pass: every blocked cycle's single sweep over the data.
//
// A cycle's two data-parallel phases — update_wts's E-step and the
// statistics accumulation of update_parameters — evaluate the same
// parameters (terms update only after the statistics exchange), so the
// blocked engine runs them as one pass: each row block runs the block
// step (three sweeps per class, see normalize.go), which computes the
// block's weights in scratch and folds them into the class sums AND
// the sufficient statistics before the next block. No n×J weights
// matrix exists — at out-of-core row counts it would dwarf any chunk
// budget (100M rows × 8 classes is 6.4 GB) — and memory per worker is one
// chunk pin plus O(J·KernelBlockRows) scratch, independent of n. The
// synchronous cycle, the bounded-staleness cycle and the crisp
// initialization (which folds its hash-derived 0/1 weights instead of
// running the block step) all use it, on materialized and chunk-backed
// views alike.
//
// Fusing changes no arithmetic against running the paper's two phases as
// separate passes over a stored weights matrix: the weight values are
// identical (same parameters, same softmax, bitwise); per statistics slot
// the accumulation order within a shard is identical; the shard merge is the
// same ascending-order merge (merging the concatenated
// {w_j, logLik | statistics} shard buffers element-wise is
// element-identical to merging the two segments separately); and the
// reduce sequence — w_j first, then the per-term (or packed) statistics
// exchange — is the same. The chunked-equivalence and kill/resume
// property tests assert the resulting trajectories across backings, chunk
// sizes and Parallelism.
//
// The Reference oracle keeps the seed engine's two passes over a
// materialized weights matrix: its local pass runs the E-step (wtsRows)
// and statsPass, called at the M-step, the accumulation (statsRows), so
// its phase timings keep the seed engine's two-pass split — the TPROF
// experiment profiles them.

// localPass runs the data-parallel work of a cycle against the current
// parameters and returns the LOCAL (unreduced) {w_0 … w_{J−1}, logLik |
// statistics} buffer with the (class, term) statistics offsets. The
// statistics segment is complete once statsPass has run.
func (e *Engine) localPass() ([]float64, []int) {
	n := e.view.N()
	j := e.cls.J()
	offs, total := e.statOffsets()
	width := j + 1 + total
	combined := e.passBuf(width)
	if e.cfg.Kernels == Blocked {
		e.prepareKernels()
	} else if len(e.wts) != n*j {
		e.wts = make([]float64, n*j)
	}
	if shards := NumRowShards(n); e.cfg.Parallelism != 0 && shards > 0 {
		workers := e.cfg.Workers(shards)
		bufs := e.scratch.get(shards, width)
		scr := e.workerScratch(workers, j)
		ParallelFor(workers, shards, func(worker, s int) {
			lo, hi := RowShardRange(s, n)
			e.passRows(lo, hi, bufs[s], offs, scr[worker])
		})
		mergeShards(combined, bufs)
	} else {
		e.passRows(0, n, combined, offs, e.workerScratch(1, j)[0])
	}
	e.closeCursors()
	a := float64(e.cls.NumAttrColumns())
	e.charge(float64(n) * float64(j) * (a + 1))
	return combined, offs
}

// passBuf returns the engine's merged pass buffer, zeroed, with the given
// width; it is reused across cycles.
func (e *Engine) passBuf(width int) []float64 {
	if cap(e.passAcc) < width {
		e.passAcc = make([]float64, width)
	}
	buf := e.passAcc[:width]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// passRows folds rows [lo, hi) into acc = {w_j, logLik | statistics}
// (Reference: into {w_j, logLik} and rows [lo, hi) of the weights
// matrix). It only reads shared classification state and writes acc, bs
// and its own matrix rows, so disjoint row ranges may run concurrently.
func (e *Engine) passRows(lo, hi int, acc []float64, offs []int, bs *blockScratch) {
	if e.cfg.Kernels == Reference {
		j := e.cls.J()
		e.wtsRows(lo, hi, acc[:j+1], bs.logp[:j])
		return
	}
	for blo := lo; blo < hi; blo += KernelBlockRows {
		bhi := min(blo+KernelBlockRows, hi)
		cols, clo, chi := e.block(bs, blo, bhi)
		bs.emBlock(e.cls.Classes, e.kerns.k, cols, clo, chi, acc, offs)
	}
}

// statsPass completes the statistics segment buf of a local pass. The
// fused blocked pass has filled it already; the Reference oracle runs its
// accumulation pass over the weights matrix here.
func (e *Engine) statsPass(buf []float64, offs []int) {
	if e.cfg.Kernels != Reference {
		return
	}
	n := e.view.N()
	if shards := NumRowShards(n); e.cfg.Parallelism != 0 && shards > 0 {
		bufs := e.scratch.get(shards, len(buf))
		ParallelFor(e.cfg.Workers(shards), shards, func(_, s int) {
			lo, hi := RowShardRange(s, n)
			e.statsRows(lo, hi, bufs[s], offs)
		})
		mergeShards(buf, bufs)
	} else {
		e.statsRows(0, n, buf, offs)
	}
}

// initStats folds the local rows into the statistics under the crisp
// initial assignment of InitRandom. The blocked path synthesizes each
// class's 0/1 weight column from the assignment hash; the Reference path
// reads the materialized crisp weights matrix.
func (e *Engine) initStats(seed uint64) ([]float64, []int) {
	n := e.view.N()
	j := e.cls.J()
	offs, total := e.statOffsets()
	buf := e.passBuf(total)
	if e.cfg.Kernels == Reference {
		e.statsPass(buf, offs)
		return buf, offs
	}
	e.prepareKernels()
	if shards := NumRowShards(n); e.cfg.Parallelism != 0 && shards > 0 {
		workers := e.cfg.Workers(shards)
		bufs := e.scratch.get(shards, total)
		scr := e.workerScratch(workers, j)
		ParallelFor(workers, shards, func(worker, s int) {
			lo, hi := RowShardRange(s, n)
			e.initRows(lo, hi, bufs[s], offs, scr[worker], seed)
		})
		mergeShards(buf, bufs)
	} else {
		e.initRows(0, n, buf, offs, e.workerScratch(1, j)[0], seed)
	}
	e.closeCursors()
	return buf, offs
}

// initRows is the blocked initStats over rows [lo, hi).
func (e *Engine) initRows(lo, hi int, buf []float64, offs []int, bs *blockScratch, seed uint64) {
	start := e.view.Start()
	for blo := lo; blo < hi; blo += KernelBlockRows {
		bhi := min(blo+KernelBlockRows, hi)
		cols, clo, chi := e.block(bs, blo, bhi)
		bs.crispStatsBlock(e.cls.Classes, e.kerns.k, cols, clo, chi, start+blo, seed, bs.counts[:e.cls.J()], buf, offs)
	}
}

// InitRandom seeds the classification: every item is crisply assigned to a
// starting class by a partition-independent hash of (seed, global index),
// and one update_parameters pass turns those assignments into initial
// parameters. All ranks calling InitRandom with the same seed produce the
// identical initial classification.
//
// The crisp class weights are counted straight from the hash. Adding the
// zeros a materialized crisp matrix would hold is exact, so they are
// bitwise the weights that matrix produces.
func (e *Engine) InitRandom(seed uint64) error {
	t0 := time.Now()
	n := e.view.N()
	j := e.cls.J()
	if j < 1 {
		return errors.New("autoclass: no classes to initialize")
	}
	start := e.view.Start()
	if e.cfg.Kernels == Reference {
		e.wts = make([]float64, n*j)
		for i := 0; i < n; i++ {
			e.wts[i*j+InitialClass(seed, start+i, j)] = 1
		}
	}
	wj := make([]float64, j)
	for i := 0; i < n; i++ {
		wj[InitialClass(seed, start+i, j)]++
	}
	e.charge(float64(n))
	if _, err := e.reduce(wj); err != nil {
		return fmt.Errorf("autoclass: init reduce: %w", err)
	}
	for cj, cl := range e.cls.Classes {
		cl.W = wj[cj]
	}
	e.cls.UpdateClassWeightsFromW()
	buf, offs := e.initStats(seed)
	if _, _, err := e.exchangeStats(buf, offs); err != nil {
		return err
	}
	a := float64(e.cls.NumAttrColumns())
	e.charge(float64(n) * float64(j) * a)
	e.updateApproximations()
	e.started = true
	e.initSeconds = time.Since(t0).Seconds()
	return nil
}
