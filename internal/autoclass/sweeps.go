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
func (bs *blockScratch) emBlock(classes []*Class, kerns [][]model.Kernel, cols *dataset.Columns, lo, hi int, acc []float64, offs []int) {
	j := len(classes)
	m := hi - lo
	v := bs.score(classes, kerns, cols, lo, hi)
	bs.norm.expSum(v, m, &acc[j])
	buf := acc[j+1:]
	ti := 0
	for cj := range classes {
		n := len(kerns[cj])
		acc[cj] = bs.foldStats(v[cj][:m], acc[cj], kerns[cj], cols, lo, hi, buf, offs[ti:ti+n+1])
		ti += n
	}
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
