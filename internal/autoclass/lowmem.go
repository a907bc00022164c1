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
// cycle and the crisp initialization (which folds its hash-derived 0/1
// weights instead of running the block step) both use it, each on the
// fixed shard grid and each reading its blocks through per-worker chunk
// cursors — over the dataset's chunk store, or over the in-memory store
// View.ChunkSrc cuts from an in-memory dataset's columns.
//
// Fusing changes no arithmetic against running the paper's two phases as
// separate passes over a stored weights matrix: the weight values are
// identical (same parameters, same softmax, bitwise); per statistics slot
// the accumulation order within a shard is identical; the shard merge is the
// same ascending-order merge (merging the concatenated
// {w_j, logLik | statistics} shard buffers element-wise is
// element-identical to merging the two segments separately). The cycle
// then sends the whole buffer in one exchange, where the paper sends w_j
// and then each (class, term) segment; under reduce-bcast and recursive
// doubling every element folds across the ranks in the same order at any
// buffer length, so the sums are the same. The chunked-equivalence and
// kill/resume property tests assert the resulting trajectories across
// backings, chunk sizes and Parallelism. The per-row two-pass oracle
// lives in the tests (kernels_test.go); the paper's two-pass algorithm
// itself runs as the WtsOnly baseline of package pautoclass, which the
// TPROF experiment profiles.

// localPass runs the data-parallel work of a cycle against the current
// parameters and returns the LOCAL (unreduced) {w_0 … w_{J−1}, logLik |
// statistics} buffer with the (class, term) statistics offsets.
func (e *Engine) localPass() ([]float64, []int) {
	n := e.view.N()
	j := e.cls.J()
	offs, total := statOffsets(e.cls, e.offs)
	e.offs = offs
	combined := e.foldShards(j+1+total, e.passLoop)
	a := float64(e.cls.NumAttrColumns())
	e.charge(float64(n) * float64(j) * (a + 1))
	return combined, offs
}

// foldShards runs one pass over the view on the fixed shard grid: body
// folds shard s's rows into e.scratch.bufs[s], zeroed and width long, with
// worker w's scratch and chunk cursor in e.blockScr[w]; Config.Workers
// workers claim the shards, and the shard buffers then merge in ascending
// order into the returned pass buffer. Every addition's order depends
// only on the row count, so the result is bitwise the same for every
// worker count.
func (e *Engine) foldShards(width int, body func(worker, shard int)) []float64 {
	shards := NumRowShards(e.view.N())
	workers := e.cfg.Workers(shards)
	bufs := e.scratch.get(shards, width)
	e.workerScratch(workers, e.cls.J())
	e.kerns.prepare(e.cls.Classes)
	ParallelFor(workers, shards, body)
	e.closeCursors()
	combined := e.passBuf(width)
	mergeShards(combined, bufs)
	return combined
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

// passRows folds rows [lo, hi) into acc = {w_j, logLik | statistics}. It
// only reads shared classification state and writes acc and bs, so
// disjoint row ranges may run concurrently.
func (e *Engine) passRows(lo, hi int, acc []float64, offs []int, bs *blockScratch) {
	for blo := lo; blo < hi; blo += KernelBlockRows {
		bhi := min(blo+KernelBlockRows, hi)
		cols, clo, chi := bs.cur.Block(blo, bhi)
		bs.emBlock(e.cls.Classes, e.kerns.k, cols, clo, chi, acc, offs)
	}
}

// initStats folds the local rows under the crisp initial assignment of
// InitRandom, synthesizing each class's 0/1 weight column from the
// assignment hash, and returns the LOCAL {n_0 … n_{J−1} | statistics}
// buffer — the class counts, then the statistics — with the (class, term)
// statistics offsets.
func (e *Engine) initStats(seed uint64) ([]float64, []int) {
	j := e.cls.J()
	offs, total := statOffsets(e.cls, e.offs)
	e.offs = offs
	start := e.view.Start()
	buf := e.foldShards(j+total, func(worker, s int) {
		lo, hi := RowShardRange(s, e.view.N())
		acc, bs := e.scratch.bufs[s], e.blockScr[worker]
		for blo := lo; blo < hi; blo += KernelBlockRows {
			bhi := min(blo+KernelBlockRows, hi)
			cols, clo, chi := bs.cur.Block(blo, bhi)
			bs.crispStatsBlock(e.cls.Classes, e.kerns.k, cols, clo, chi, start+blo, seed, acc[:j], acc[j:], offs)
		}
	})
	return buf, offs
}

// InitRandom seeds the classification: every item is crisply assigned to a
// starting class by a partition-independent hash of (seed, global index),
// and one update_parameters pass turns those assignments into initial
// parameters. All ranks calling InitRandom with the same seed produce the
// identical initial classification.
//
// The crisp class weights are the counts the initialization pass folds
// beside the statistics: sums of 0/1 weights, exact integers in any
// order, so they are bitwise the column sums a materialized crisp matrix
// would give.
func (e *Engine) InitRandom(seed uint64) error {
	t0 := time.Now()
	n := e.view.N()
	j := e.cls.J()
	if j < 1 {
		return errors.New("autoclass: no classes to initialize")
	}
	buf, offs := e.initStats(seed)
	e.charge(float64(n))
	if _, err := e.exchange(buf, j, offs); err != nil {
		return fmt.Errorf("autoclass: init reduce: %w", err)
	}
	for cj, cl := range e.cls.Classes {
		cl.W = buf[cj]
	}
	e.cls.UpdateClassWeightsFromW()
	e.updateTerms(buf[j:], offs)
	a := float64(e.cls.NumAttrColumns())
	e.charge(float64(n) * float64(j) * a)
	updateApproximations(e.cls, e.charger)
	e.started = true
	e.initSeconds = time.Since(t0).Seconds()
	return nil
}
