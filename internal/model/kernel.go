package model

import "repro/internal/dataset"

// Kernel is a Term's blocked evaluation path. Where Term scores and
// accumulates one row at a time through an interface call, a Kernel walks a
// contiguous block of rows in column-major layout (dataset.Columns) in
// one call, with the term's per-cycle invariants — log σ and the Gaussian
// normalizer for the normal terms, the log-probability table for the
// multinomial, the Cholesky factor and log-determinant for the
// multi-normal — precomputed once per cycle instead of per case.
//
// A Kernel aliases its Term: parameter updates (Update/SetParams) are
// picked up by calling Refresh, so the engine can build kernels once per
// (class, term) and reuse them across cycles with zero steady-state
// allocation.
//
// Concurrency: a Kernel is immutable after Refresh. Block calls only read
// the kernel and its term and write the caller's out/st and Scratch, so
// one Kernel may serve any number of concurrent Block calls as long as
// each caller passes its own Scratch. Refresh, Update and SetParams must
// not overlap Block calls.
//
// Contract: out and st follow the accumulate convention of LogProb and
// AccumulateStats — contributions are ADDED, missing values add nothing —
// and out[i] corresponds to view-local row lo+i. Block results may differ
// from the per-row path only in floating-point association (≤1e-12
// relative); the per-row path remains the bitwise reference.
type Kernel interface {
	// Refresh recomputes the precomputed constants from the term's current
	// parameters. Call it after Update/SetParams, before any Block call.
	Refresh()
	// BlockLogProb adds the term's log-likelihood contribution for rows
	// [lo, hi) of cols into out[0 : hi-lo].
	BlockLogProb(cols *dataset.Columns, lo, hi int, out []float64, s *Scratch)
	// BlockAccumulateStats folds rows [lo, hi) with weights wts[0 : hi-lo]
	// into the term's sufficient statistics st (length StatsSize).
	BlockAccumulateStats(cols *dataset.Columns, wts []float64, lo, hi int, st []float64, s *Scratch)
}

// Scratch is the per-caller working memory of Kernel Block calls — one per
// worker goroutine. The zero value is ready to use; buffers grow on first
// use and are reused afterwards, so a warm Scratch makes Block calls
// allocation-free.
type Scratch struct {
	f    []float64
	cols [][]float64
}

// floats returns a scratch vector of length n (contents unspecified).
func (s *Scratch) floats(n int) []float64 {
	if cap(s.f) < n {
		s.f = make([]float64, n)
	}
	return s.f[:n]
}

// colRefs returns a scratch slice of n column references.
func (s *Scratch) colRefs(n int) [][]float64 {
	if cap(s.cols) < n {
		s.cols = make([][]float64, n)
	}
	return s.cols[:n]
}
