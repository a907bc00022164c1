package autoclass

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/model"
)

// score is sweep 1 over rows [lo, hi) of cols: on return v[cj][:hi-lo]
// holds log π_j plus every term's log-likelihood, added in term order,
// and ns.max each row's maximum over the classes. Consecutive normal
// terms run as model.NormalRun pieces; every other term adds its kernel's
// BlockLogProb.
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
			model.FoldMax(mx, v)
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

// emBlock is the fused E+M step of one row block [lo, hi) of cols, the
// body of the engine's fused pass: the three sweeps,
// with the class sums and log-likelihood folded into acc[:J+1] and every
// term's statistics into acc[J+1:] at the (class, term) offsets offs.
func (bs *blockScratch) emBlock(classes []*Class, kerns [][]model.Kernel, cols *dataset.Columns, lo, hi int, acc []float64, offs []int) {
	j := len(classes)
	v := bs.score(classes, kerns, cols, lo, hi)
	bs.norm.expSum(v, hi-lo, &acc[j])
	bs.foldClasses(v, acc[:j], kerns, cols, lo, hi, acc[j+1:], offs)
}

// foldClasses is sweep 3 of every class over rows [lo, hi) of cols: it
// scales each class vector v[cj] by the row reciprocals in ns.inv into
// weights, adds their sum into W[cj] and every term's statistics into buf
// at the offsets offs. The classes go model.Lanes at a time where
// foldLanes can take them, and one at a time otherwise.
func (bs *blockScratch) foldClasses(v [][]float64, W []float64, kerns [][]model.Kernel, cols *dataset.Columns, lo, hi int, buf []float64, offs []int) {
	j := len(W)
	m := hi - lo
	ti := 0
	for cj := 0; cj < j; {
		if g := cj + model.Lanes; g <= j && bs.foldLanes(v[cj:g], W[cj:g], kerns[cj:g], cols, lo, hi, buf, offs[ti:]) {
			for _, ks := range kerns[cj:g] {
				ti += len(ks)
			}
			cj = g
			continue
		}
		n := len(kerns[cj])
		W[cj] = bs.foldStats(v[cj][:m], W[cj], kerns[cj], cols, lo, hi, buf, offs[ti:ti+n+1])
		ti += n
		cj++
	}
}

// foldLanes is sweep 3 of model.Lanes consecutive classes at once, with
// their vectors v and class sums W: when the normal terms of every class
// that fit a model.NormalRun share their columns with the other classes',
// model.FoldLanes folds the runs together (one class per vector lane where
// its kernels run), storing the weights back into v when another term
// must read them, and foldLanes reports true. Otherwise it reports false
// and does nothing.
func (bs *blockScratch) foldLanes(v [][]float64, W []float64, kerns [][]model.Kernel, cols *dataset.Columns, lo, hi int, buf []float64, slots []int) bool {
	var runs [model.Lanes]model.NormalRun
	var vs [model.Lanes][]float64
	var ws [model.Lanes]float64
	var rest [model.Lanes]bool
	store := false
	ti := 0
	for l, ks := range kerns[:model.Lanes] {
		rest[l] = bindRun(&runs[l], ks, cols, lo, hi, buf, slots[ti:])
		store = store || rest[l]
		ti += len(ks)
		vs[l] = v[l][:hi-lo]
		ws[l] = W[l]
	}
	if !model.FoldLanes(&runs, &vs, bs.norm.inv[:hi-lo], &ws, store) {
		return false
	}
	copy(W, ws[:])
	ti = 0
	for l, ks := range kerns[:model.Lanes] {
		if rest[l] {
			bs.restStats(&runs[l], vs[l], ks, cols, lo, hi, buf, slots[ti:])
		}
		ti += len(ks)
	}
	return true
}

// foldStats is sweep 3 of one class: it scales the class vector v into
// weights, returns W plus their sum in ascending row order, and adds every
// term's statistics into buf at the slots offsets. The first normal terms
// that fit a model.NormalRun accumulate in the scaling loop; the weights
// are stored back into v only when another term must read them.
func (bs *blockScratch) foldStats(v []float64, W float64, kerns []model.Kernel, cols *dataset.Columns, lo, hi int, buf []float64, slots []int) float64 {
	var run model.NormalRun
	rest := bindRun(&run, kerns, cols, lo, hi, buf, slots)
	W = run.Fold(v, bs.norm.inv[:len(v)], W, rest)
	if rest {
		bs.restStats(&run, v, kerns, cols, lo, hi, buf, slots)
	}
	return W
}

// bindRun adds to run, in term order, every kernel of kerns it takes, with
// the kernel's statistics slot in buf at the slots offsets, and reports
// whether any kernel was left out.
func bindRun(run *model.NormalRun, kerns []model.Kernel, cols *dataset.Columns, lo, hi int, buf []float64, slots []int) bool {
	rest := false
	for bi, k := range kerns {
		if !run.Add(k, cols, lo, hi, buf[slots[bi]:slots[bi+1]]) {
			rest = true
		}
	}
	return rest
}

// restStats adds the statistics of every kernel of kerns that run does not
// hold, reading the weights w the run's fold stored.
func (bs *blockScratch) restStats(run *model.NormalRun, w []float64, kerns []model.Kernel, cols *dataset.Columns, lo, hi int, buf []float64, slots []int) {
	for bi, k := range kerns {
		if !run.Holds(k) {
			k.BlockAccumulateStats(cols, w, lo, hi, buf[slots[bi]:slots[bi+1]], &bs.ks)
		}
	}
}
