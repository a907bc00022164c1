package autoclass

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/model"
)

// score is sweep 1 over rows [lo, hi) of cols: on return v[cj][:hi-lo]
// holds log π_j plus every term's log-likelihood, added in term order,
// and ns.max each row's maximum over the classes. Consecutive normal
// terms over columns without missing values run as model.NormalRun
// pieces; every other term adds its kernel's BlockLogProb.
func (bs *blockScratch) score(classes []*Class, kerns [][]model.Kernel, cols *dataset.Columns, lo, hi int) [][]float64 {
	m := hi - lo
	mx := bs.norm.max[:m]
	for r := range mx {
		mx[r] = math.Inf(-1)
	}
	lp := bs.lp[:len(classes)]
	for cj, cl := range classes {
		v := lp[cj][:m]
		ks := kerns[cj]
		if len(ks) == 0 {
			fill(v, cl.LogPi)
		}
		folded := false
		for bi := 0; bi < len(ks); {
			var run model.NormalRun
			start := bi
			for bi < len(ks) && run.Add(ks[bi], cols, lo, hi, nil) {
				bi++
			}
			if bi == start {
				if bi == 0 {
					fill(v, cl.LogPi)
				}
				ks[bi].BlockLogProb(cols, lo, hi, v, &bs.ks)
				bi++
				continue
			}
			folded = bi == len(ks)
			run.Score(v, mx, cl.LogPi, start == 0, folded)
		}
		if !folded {
			foldMax(mx, v)
		}
	}
	return lp
}

// fill sets every element of v to x.
func fill(v []float64, x float64) {
	for r := range v {
		v[r] = x
	}
}

// emBlock is the fused E+M step of one row block [lo, hi) of cols, shared
// by the engine's fused pass and the StreamTrainer: the three sweeps,
// with the class sums and log-likelihood folded into acc[:J+1] and every
// term's statistics into acc[J+1:] at the (class, term) offsets offs.
// Sweep 3 takes the classes model.Lanes at a time where foldLanes can,
// and one at a time otherwise.
func (bs *blockScratch) emBlock(classes []*Class, kerns [][]model.Kernel, cols *dataset.Columns, lo, hi int, acc []float64, offs []int) {
	j := len(classes)
	m := hi - lo
	v := bs.score(classes, kerns, cols, lo, hi)
	bs.norm.expSum(v, m, &acc[j])
	buf := acc[j+1:]
	ti := 0
	for cj := 0; cj < j; {
		if g := cj + model.Lanes; g <= j && bs.foldLanes(v[cj:g], acc[cj:g], kerns[cj:g], cols, lo, hi, buf, offs[ti:]) {
			for _, ks := range kerns[cj:g] {
				ti += len(ks)
			}
			cj = g
			continue
		}
		n := len(kerns[cj])
		acc[cj] = bs.foldStats(v[cj][:m], acc[cj], kerns[cj], cols, lo, hi, buf, offs[ti:ti+n+1])
		ti += n
		cj++
	}
}

// foldLanes is sweep 3 of model.Lanes consecutive classes at once, with
// their vectors v and class sums W: when every class's terms all fit one
// model.NormalRun and the runs share their columns, model.FoldLanes folds
// them together (one class per vector lane where its kernel runs) and
// foldLanes reports true. Otherwise it reports false and does nothing.
func (bs *blockScratch) foldLanes(v [][]float64, W []float64, kerns [][]model.Kernel, cols *dataset.Columns, lo, hi int, buf []float64, slots []int) bool {
	var runs [model.Lanes]model.NormalRun
	var vs [model.Lanes][]float64
	var ws [model.Lanes]float64
	ti := 0
	for l, ks := range kerns[:model.Lanes] {
		for _, k := range ks {
			if !runs[l].Add(k, cols, lo, hi, buf[slots[ti]:slots[ti+1]]) {
				return false
			}
			ti++
		}
		vs[l] = v[l][:hi-lo]
		ws[l] = W[l]
	}
	if !model.FoldLanes(&runs, &vs, bs.norm.inv[:hi-lo], &ws) {
		return false
	}
	copy(W, ws[:])
	return true
}

// foldStats is sweep 3 of one class: it scales the class vector v into
// weights, returns W plus their sum in ascending row order, and adds every
// term's statistics into buf at the slots offsets. The first normal terms
// over columns without missing values that fit a model.NormalRun
// accumulate in the scaling loop; the weights are stored back into v only
// when another term must read them.
func (bs *blockScratch) foldStats(v []float64, W float64, kerns []model.Kernel, cols *dataset.Columns, lo, hi int, buf []float64, slots []int) float64 {
	var run model.NormalRun
	rest := false
	for bi, k := range kerns {
		if !run.Add(k, cols, lo, hi, buf[slots[bi]:slots[bi+1]]) {
			rest = true
		}
	}
	W = run.Fold(v, bs.norm.inv[:len(v)], W, rest)
	if rest {
		for bi, k := range kerns {
			if !run.Holds(k) {
				k.BlockAccumulateStats(cols, v, lo, hi, buf[slots[bi]:slots[bi+1]], &bs.ks)
			}
		}
	}
	return W
}
