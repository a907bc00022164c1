package autoclass

import (
	"errors"
	"math"

	"repro/internal/dataset"
)

// Batch inference: applying a fitted Classification to new cases at scale.
//
// Training amortizes one model over many EM cycles; serving inverts the
// ratio — one fitted model is applied to an unbounded stream of fresh rows,
// so the per-row cost of the E-step dominates everything. The batch scorer
// therefore reuses the engine's blocked machinery (the view's chunk plane,
// model.Kernel per (class, term), the class-major block normalizer) for a
// hot path with zero interface calls per row. The tests hold it against a
// per-row oracle built on Classification.LogMembership (predict_test.go).
//
// Determinism mirrors the training engine's invariant: the shard and block
// grids depend only on the row count, per-shard log-likelihood partial sums
// are merged in ascending shard order, and per-row outputs are written to
// disjoint slices — so results are bitwise identical for every
// Parallelism value. The scorer walks the view's chunk plane through
// per-worker cursors (for an in-memory dataset, a store of windows of its
// columns); the block grid never straddles a chunk
// (KernelBlockRows == ChunkAlign), so results are also bitwise identical
// across chunk backings and sizes.

// PredictConfig controls the batch scorer. The zero value scores on a
// single worker.
type PredictConfig struct {
	// Parallelism selects the worker count, with the same encoding as
	// Config.Parallelism: 0 or 1 one worker, >1 that many worker
	// goroutines, <0 runtime.GOMAXPROCS(0). Results are bitwise identical
	// for every value.
	Parallelism int
	// RowLogLik additionally records each row's log-evidence
	// log Σ_j π_j·p(x_i|j) in Prediction.RowLL (−Inf for rows contributing
	// no evidence). The serving tier uses it to recover a sub-batch's
	// LogLik bitwise via FoldRowLogLik after scoring a coalesced batch.
	RowLogLik bool
}

// Prediction is the batch scoring result over n cases.
type Prediction struct {
	// J is the class count of the scoring classification.
	J int
	// Memberships holds the normalized posterior class memberships, n×J
	// row-major: Memberships[i*J+j] = P(class j | case i). Missing
	// attributes contribute no evidence, so a fully-missing row falls back
	// to the prior mixing weights; a row scoring -Inf in every class (not
	// reachable for in-support data) gets the uniform 1/J membership,
	// matching the training engine's convention.
	Memberships []float64
	// MAP[i] is case i's maximum-a-posteriori class: the first class
	// attaining the row's maximum membership.
	MAP []int
	// LogLik is the total held-out log-likelihood Σ_i log Σ_j π_j·p(x_i|j).
	// All-missing rows contribute nothing, matching HeldoutLogLik.
	LogLik float64
	// RowLL, filled only under PredictConfig.RowLogLik, holds each row's
	// log-evidence z_i = log Σ_j π_j·p(x_i|j). A fully-missing row falls
	// back to the prior weights (z = log Σ π_j ≈ 0); a row scoring −Inf
	// in every class (not reachable for in-support data) records −Inf.
	// FoldRowLogLik over any slice of RowLL reproduces that slice's
	// standalone LogLik bitwise.
	RowLL []float64
}

// N returns the number of scored cases.
func (p *Prediction) N() int {
	if p.J == 0 {
		return 0
	}
	return len(p.Memberships) / p.J
}

// Membership returns case i's posterior membership vector (a read-only
// alias into Memberships).
func (p *Prediction) Membership(i int) []float64 {
	return p.Memberships[i*p.J : (i+1)*p.J]
}

// reset sizes the result buffers for n cases and j classes, reusing the
// backing arrays when they are large enough — a repeated PredictInto over
// same-shaped batches allocates nothing here.
func (p *Prediction) reset(n, j int, rowLL bool) {
	p.J = j
	p.LogLik = 0
	if cap(p.Memberships) < n*j {
		p.Memberships = make([]float64, n*j)
	} else {
		p.Memberships = p.Memberships[:n*j]
	}
	if cap(p.MAP) < n {
		p.MAP = make([]int, n)
	} else {
		p.MAP = p.MAP[:n]
	}
	if !rowLL {
		p.RowLL = p.RowLL[:0]
	} else if cap(p.RowLL) < n {
		p.RowLL = make([]float64, n)
	} else {
		p.RowLL = p.RowLL[:n]
	}
}

// Predict scores every row of ds under the fitted classification — the
// batch inference entry point. See PredictView for scoring a window.
func Predict(cls *Classification, ds *dataset.Dataset, cfg PredictConfig) (*Prediction, error) {
	if ds == nil {
		return nil, errors.New("autoclass: nil dataset")
	}
	return PredictView(cls, ds.All(), cfg)
}

// PredictView scores every row of the view under the fitted classification:
// per-case posterior memberships, the MAP class, and the total held-out
// log-likelihood. The view's dataset must be schema-compatible with the
// classification's spec; the rows themselves are new data the search never
// saw. Safe for concurrent calls on the same classification (each call
// builds its own Predictor; the scorer never mutates the classification).
func PredictView(cls *Classification, view *dataset.View, cfg PredictConfig) (*Prediction, error) {
	pr, err := NewPredictor(cls, cfg)
	if err != nil {
		return nil, err
	}
	return pr.PredictView(view)
}

// Predictor is a reusable batch scorer over one fitted classification. It
// caches the per-(class, term) kernels, the per-worker scratch and the
// result buffers across calls, keyed on term identity — in a serving loop
// over same-shaped batches the steady state performs zero allocations
// (kernels are merely Refreshed against the parameters). A Predictor is
// NOT safe for concurrent use; for concurrent scoring build one Predictor
// per goroutine (or use the PredictView function, which does exactly
// that). The classification itself is only read.
type Predictor struct {
	cls *Classification
	cfg PredictConfig

	kerns   kernelSet
	scratch []*blockScratch
	lls     []float64
	lastDS  *dataset.Dataset // last schema-validated dataset

	// The shard loop body is built once and bound to these per-call fields
	// so a warm PredictInto never allocates a fresh closure.
	loop func(worker, shard int)
	curP *Prediction
	curN int
}

// NewPredictor builds a reusable scorer.
func NewPredictor(cls *Classification, cfg PredictConfig) (*Predictor, error) {
	if cls == nil {
		return nil, errors.New("autoclass: nil classification")
	}
	return &Predictor{cls: cls, cfg: cfg}, nil
}

// Predict scores every row of ds. See PredictInto for buffer reuse.
func (pr *Predictor) Predict(ds *dataset.Dataset) (*Prediction, error) {
	if ds == nil {
		return nil, errors.New("autoclass: nil dataset")
	}
	return pr.PredictView(ds.All())
}

// PredictView scores every row of the view into a fresh Prediction.
func (pr *Predictor) PredictView(view *dataset.View) (*Prediction, error) {
	p := &Prediction{}
	if err := pr.PredictInto(view, p); err != nil {
		return nil, err
	}
	return p, nil
}

// PredictInto scores every row of the view into p, reusing p's buffers
// when they are large enough. This is the zero-allocation serving path:
// with a warm Predictor and a same-shaped batch, neither the scorer nor
// the result allocates.
func (pr *Predictor) PredictInto(view *dataset.View, p *Prediction) error {
	if view == nil || p == nil {
		return errors.New("autoclass: nil view or prediction")
	}
	if ds := view.Dataset(); ds != pr.lastDS {
		if err := pr.cls.Spec.Validate(ds); err != nil {
			return err
		}
		pr.lastDS = ds
	}
	n := view.N()
	j := pr.cls.J()
	p.reset(n, j, pr.cfg.RowLogLik)
	if n == 0 {
		return nil
	}
	src, err := view.ChunkSrc()
	if err != nil {
		return err
	}
	pr.kerns.prepare(pr.cls.Classes)
	// Like the training engine, the scorer always runs on the fixed shard
	// grid, so every Parallelism value accumulates the log-likelihood in
	// the same per-shard grouping and the result is bitwise identical.
	shards := NumRowShards(n)
	workers := pr.prepare(Config{Parallelism: pr.cfg.Parallelism}.Workers(shards), src)
	if cap(pr.lls) < shards {
		pr.lls = make([]float64, shards)
	}
	lls := pr.lls[:shards]
	pr.curP, pr.curN = p, n
	if pr.loop == nil {
		pr.loop = func(worker, s int) {
			lo, hi := RowShardRange(s, pr.curN)
			pr.lls[s] = pr.scoreRows(lo, hi, pr.curP, pr.scratch[worker])
		}
	}
	ParallelFor(len(workers), shards, pr.loop)
	pr.curP = nil
	for _, ps := range pr.scratch {
		ps.cur.Close()
	}
	// Ascending-shard merge keeps the total bitwise identical for every
	// worker count.
	for _, ll := range lls {
		p.LogLik += ll
	}
	return nil
}

// prepare returns `workers` scratch instances, reused across calls and
// grown on demand, with each worker's cursor pointed at the view's chunk
// source src.
func (pr *Predictor) prepare(workers int, src dataset.ChunkSrc) []*blockScratch {
	for len(pr.scratch) < workers {
		pr.scratch = append(pr.scratch, &blockScratch{})
	}
	for _, ps := range pr.scratch[:workers] {
		ps.grow(pr.cls.J())
		ps.cur.Reset(src)
	}
	return pr.scratch[:workers]
}

// scoreRows scores rows [lo, hi) into p and returns their log-likelihood
// contribution: per KernelBlockRows block, sweeps 1 and 2 of the block
// step produce every class's exponentials and each row's log-evidence, and
// one more sweep per class scales them into the row-major memberships and
// takes the MAP classes — no interface call and no allocation per row.
// Disjoint row ranges may run concurrently: every write goes to a per-row
// slice of p or the local scratch. Blocks never straddle shard boundaries
// (KernelBlockRows divides RowShardSize), so the block grid — and
// therefore every float64 — is identical for every Parallelism setting;
// nor do they straddle chunk boundaries, so the same holds across chunk
// backings.
func (pr *Predictor) scoreRows(lo, hi int, p *Prediction, ps *blockScratch) float64 {
	j := p.J
	ll := 0.0
	for blo := lo; blo < hi; blo += KernelBlockRows {
		bhi := min(blo+KernelBlockRows, hi)
		m := bhi - blo
		cols, clo, chi := ps.cur.Block(blo, bhi)
		v := ps.score(pr.cls.Classes, pr.kerns.k, cols, clo, chi)
		ps.norm.expSum(v, m, &ll)
		ps.norm.scaleArgmax(v, m, p.Memberships[blo*j:bhi*j], p.MAP[blo:bhi])
		if pr.cfg.RowLogLik {
			copy(p.RowLL[blo:bhi], ps.norm.z[:m])
		}
	}
	return ll
}

// FoldRowLogLik reduces per-row log-evidence values (Prediction.RowLL) to
// the total LogLik a standalone scoring of exactly those rows would report,
// bitwise: rows are summed left to right within each fixed RowShardSize
// shard (skipping −Inf rows, which contribute no evidence) and the shard
// partials are folded in ascending order — the precise association the
// scorer uses for every Parallelism value. This is what lets the serving
// tier coalesce requests into one batch, or shard one batch across ranks,
// and still return each request the float64-identical LogLik it would have
// gotten scoring alone.
func FoldRowLogLik(rowLL []float64) float64 {
	n := len(rowLL)
	total := 0.0
	for s := 0; s < NumRowShards(n); s++ {
		lo, hi := RowShardRange(s, n)
		ll := 0.0
		for i := lo; i < hi; i++ {
			if z := rowLL[i]; !math.IsInf(z, -1) {
				ll += z
			}
		}
		total += ll
	}
	return total
}
