package model

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// normalTerm is AutoClass's single_normal_cn: one real attribute modeled as
// a Gaussian with a data-dependent conjugate-style MAP update.
//
// Sufficient statistics (3 values): [Σ w·x, Σ w·x², Σ w over known values].
//
// MAP update with prior pseudo-count κ, prior mean μ₀ (global mean) and
// prior scale σ₀ (global sigma):
//
//	μ = (κ·μ₀ + Σwx) / (κ + W)
//	σ² = (κ·σ₀² + κ·(μ−μ₀)² + Σw(x−μ)²) / (κ + W),  σ ≥ floor
type normalTerm struct {
	attr  int
	pr    *Priors
	mean  float64
	sigma float64
}

func newNormalTerm(attr int, pr *Priors) *normalTerm {
	return &normalTerm{
		attr:  attr,
		pr:    pr,
		mean:  pr.Mean[attr],
		sigma: pr.Sigma[attr],
	}
}

func (t *normalTerm) Kind() TermKind { return SingleNormal }
func (t *normalTerm) Attrs() []int   { return []int{t.attr} }

// Mean returns the current class mean (exported for reports and tests).
func (t *normalTerm) Mean() float64 { return t.mean }

// Sigma returns the current class standard deviation.
func (t *normalTerm) Sigma() float64 { return t.sigma }

func (t *normalTerm) LogProb(row []float64) float64 {
	x := row[t.attr]
	if dataset.IsMissing(x) {
		return 0
	}
	return stats.LogNormalPDF(x, t.mean, t.sigma)
}

func (t *normalTerm) StatsSize() int { return 3 }

func (t *normalTerm) AccumulateStats(row []float64, w float64, st []float64) {
	x := row[t.attr]
	if dataset.IsMissing(x) {
		return
	}
	st[0] += w * x
	st[1] += w * x * x
	st[2] += w
}

func (t *normalTerm) Update(st []float64) {
	sumWX, sumWX2, w := st[0], st[1], st[2]
	kappa := t.pr.Kappa
	mu0 := t.pr.Mean[t.attr]
	sigma0 := t.pr.Sigma[t.attr]
	mean := (kappa*mu0 + sumWX) / (kappa + w)
	// Σw(x−μ)² = Σwx² − 2μΣwx + μ²W
	ss := sumWX2 - 2*mean*sumWX + mean*mean*w
	if ss < 0 {
		ss = 0 // rounding guard
	}
	dm := mean - mu0
	variance := (kappa*sigma0*sigma0 + kappa*dm*dm + ss) / (kappa + w)
	sigma := math.Sqrt(variance)
	if floor := t.pr.SigmaFloor[t.attr]; sigma < floor {
		sigma = floor
	}
	t.mean, t.sigma = mean, sigma
}

func (t *normalTerm) LogPrior() float64 {
	mu0 := t.pr.Mean[t.attr]
	sigma0 := t.pr.Sigma[t.attr]
	return stats.LogNormalPDF(t.mean, mu0, sigma0) +
		logInvGammaPDF(t.sigma*t.sigma, sigma0*sigma0)
}

func (t *normalTerm) NumParams() int { return 2 }

func (t *normalTerm) Params() []float64 { return []float64{t.mean, t.sigma} }

func (t *normalTerm) SetParams(p []float64) error {
	if len(p) != 2 {
		return fmt.Errorf("model: normal term needs 2 params, got %d", len(p))
	}
	if p[1] <= 0 || math.IsNaN(p[0]) || math.IsNaN(p[1]) {
		return fmt.Errorf("model: invalid normal params %v", p)
	}
	t.mean, t.sigma = p[0], p[1]
	return nil
}

func (t *normalTerm) Clone() Term {
	c := *t
	return &c
}

func (t *normalTerm) Describe(ds *dataset.Dataset) string {
	return fmt.Sprintf("%s ~ N(mean=%.4g, sigma=%.4g)", ds.Attr(t.attr).Name, t.mean, t.sigma)
}

// normalKernel is the blocked path of normalTerm. Refresh precomputes the
// two per-cycle invariants of the Gaussian log-density, reducing the inner
// loop to one subtract, two multiplies and an add per case:
//
//	log N(x|μ,σ) = c − (x−μ)²·inv2,  c = −log σ − ½log 2π,  inv2 = 1/(2σ²)
type normalKernel struct {
	t    *normalTerm
	mean float64
	c    float64
	inv2 float64
}

func (t *normalTerm) Kernel() Kernel {
	k := &normalKernel{t: t}
	k.Refresh()
	return k
}

func (k *normalKernel) Refresh() {
	k.mean = k.t.mean
	k.c = -math.Log(k.t.sigma) - stats.HalfLog2Pi
	k.inv2 = 1 / (2 * k.t.sigma * k.t.sigma)
}

// BlockLogProb skips missing values. The engine scores normal terms
// through NormalRun, up to three per loop, so this per-term loop is the
// Kernel interface's and the oracle the runs are tested against.
func (k *normalKernel) BlockLogProb(cols *dataset.Columns, lo, hi int, out []float64, _ *Scratch) {
	col := cols.Col(k.t.attr)[lo:hi]
	mean, c, inv2 := k.mean, k.c, k.inv2
	for i, x := range col {
		if x == x { // NaN encodes missing
			d := x - mean
			out[i] += c - d*d*inv2
		}
	}
}

func (k *normalKernel) BlockAccumulateStats(cols *dataset.Columns, wts []float64, lo, hi int, st []float64, _ *Scratch) {
	col := cols.Col(k.t.attr)[lo:hi]
	var sx, sxx, sw float64
	if !cols.HasMissing(k.t.attr) {
		for i, x := range col {
			w := wts[i]
			wx := w * x
			sx += wx
			sxx += wx * x
			sw += w
		}
	} else {
		for i, x := range col {
			if x == x {
				w := wts[i]
				wx := w * x
				sx += wx
				sxx += wx * x
				sw += w
			}
		}
	}
	addNormalStats(st, sx, sxx, sw)
}

// addNormalStats adds one block's sums into a normal term's statistics
// slot [Σw·x, Σw·x², Σw].
func addNormalStats(st []float64, sx, sxx, sw float64) {
	st[0] += sx
	st[1] += sxx
	st[2] += sw
}

// normalRunMax is the most terms a NormalRun holds. Longer runs of normal
// terms split into consecutive runs; a ProteinMixture class is three
// normal terms followed by a multinomial.
const normalRunMax = 3

// NormalRun is up to three single_normal_cn terms of one class, bound to
// one row block, whose kernels the block step evaluates in one loop per
// sweep: Score adds their log-densities, Fold accumulates their statistics
// from the weights. Each term keeps its kernel's expression c − d·d·inv2
// and its statistics layout, and every sum runs in ascending row order, so
// a run adds exactly what its kernels' BlockLogProb and
// BlockAccumulateStats add one after the other. A run is masked when one
// of its columns has a missing value: then, as its kernels do, each term
// skips the rows where its x is missing (NaN) and keeps its own Σw over
// its known rows, where an unmasked run keeps one Σw for all its terms.
type NormalRun struct {
	n      int
	masked bool
	k      [normalRunMax]*normalKernel
	x      [normalRunMax][]float64
	st     [normalRunMax][]float64
}

// Add appends k, over rows [lo, hi) of cols and with the statistics slot st
// (nil when only scoring), and reports whether it did: k must be the
// kernel of a single_normal_cn term, and the run must have room.
func (run *NormalRun) Add(k Kernel, cols *dataset.Columns, lo, hi int, st []float64) bool {
	nk, ok := k.(*normalKernel)
	if !ok || run.n == normalRunMax {
		return false
	}
	run.masked = run.masked || cols.HasMissing(nk.t.attr)
	run.k[run.n] = nk
	run.x[run.n] = cols.Col(nk.t.attr)[lo:hi]
	run.st[run.n] = st
	run.n++
	return true
}

// Holds reports whether k is one of the run's kernels.
func (run *NormalRun) Holds(k Kernel) bool {
	for _, nk := range run.k[:run.n] {
		if Kernel(nk) == k {
			return true
		}
	}
	return false
}

// perTerm reports whether the run takes the masked Go loops: it is masked,
// or it holds three terms, which the unmasked loops (the paper model's
// runs of one or two) do not cover. The masked loops are exact for a
// column without missing values too: no x is NaN there, and each term's
// own Σw is the shared one.
func (run *NormalRun) perTerm() bool { return run.masked || run.n == normalRunMax }

// Score adds the run's log-densities into the class vector v in term
// order, starting each row from logPi instead of v when first, and, when
// fold, folds each row's final value into the row maxima mx (strictly
// greater wins). Where the vector kernels run (normal_amd64.s), the rows
// up to the last multiple of four go four to a register for an unmasked
// run of two terms that starts its class and folds, and for a run of
// three that starts its class and does not fold; the rest, and every
// other run, take the Go loop.
func (run *NormalRun) Score(v, mx []float64, logPi float64, first, fold bool) {
	mx = mx[:len(v)]
	q := run.scoreQuads(v, mx, logPi, first, fold)
	run.score(v[q:], mx[q:], q, logPi, first, fold)
}

// score is Score's Go loop over the rows off, off+1, … of the run's block.
// Each length has a loop for a run that starts the class and one for a
// run that continues it: a per-row choice between the two starting values
// costs more than the duplicated loop.
func (run *NormalRun) score(v, mx []float64, off int, logPi float64, first, fold bool) {
	mx = mx[:len(v)]
	if run.perTerm() {
		run.scoreMasked(v, mx, off, logPi, first, fold)
		return
	}
	switch run.n {
	case 1:
		x0 := run.x[0][off : off+len(v)]
		m0, c0, q0 := run.k[0].mean, run.k[0].c, run.k[0].inv2
		if first {
			for r := range v {
				s := logPi
				d := x0[r] - m0
				s += c0 - d*d*q0
				v[r] = s
				if fold && s > mx[r] {
					mx[r] = s
				}
			}
			return
		}
		for r := range v {
			s := v[r]
			d := x0[r] - m0
			s += c0 - d*d*q0
			v[r] = s
			if fold && s > mx[r] {
				mx[r] = s
			}
		}
	case 2:
		x0, x1 := run.x[0][off:off+len(v)], run.x[1][off:off+len(v)]
		m0, c0, q0 := run.k[0].mean, run.k[0].c, run.k[0].inv2
		m1, c1, q1 := run.k[1].mean, run.k[1].c, run.k[1].inv2
		if first {
			for r := range v {
				s := logPi
				d := x0[r] - m0
				s += c0 - d*d*q0
				d = x1[r] - m1
				s += c1 - d*d*q1
				v[r] = s
				if fold && s > mx[r] {
					mx[r] = s
				}
			}
			return
		}
		for r := range v {
			s := v[r]
			d := x0[r] - m0
			s += c0 - d*d*q0
			d = x1[r] - m1
			s += c1 - d*d*q1
			v[r] = s
			if fold && s > mx[r] {
				mx[r] = s
			}
		}
	}
}

// scoreMasked is score for a run that takes the masked loops: a row's s
// starts from logPi or v, and each term adds its expression to it only
// where its x is known, so a missing x leaves s as it was, bit for bit.
func (run *NormalRun) scoreMasked(v, mx []float64, off int, logPi float64, first, fold bool) {
	for r := range v {
		s := v[r]
		if first {
			s = logPi
		}
		for t, k := range run.k[:run.n] {
			if x := run.x[t][off+r]; x == x {
				d := x - k.mean
				s += k.c - d*d*k.inv2
			}
		}
		v[r] = s
		if fold && s > mx[r] {
			mx[r] = s
		}
	}
}

// runSums is the running state of one run's Fold: the class sum W and
// each term's Σw·x, Σ(w·x)·x and Σw. An unmasked run of one or two terms
// keeps the Σw its terms share in sw[0] alone.
type runSums struct {
	w           float64
	sx, sxx, sw [normalRunMax]float64
}

// Fold scales the class vector v by the row reciprocals inv into weights,
// stored back into v when store, adds them to W in ascending row order,
// adds each term's Σw·x, Σ(w·x)·x and Σw over the block into its slot, and
// returns W. An empty run only scales and sums. Each weight is rounded
// before it is added anywhere: the float64 conversion forbids fusing the
// multiply into a following add.
func (run *NormalRun) Fold(v, inv []float64, W float64, store bool) float64 {
	s := runSums{w: W}
	run.fold(v, inv, 0, store, &s)
	run.flush(&s)
	return s.w
}

// fold is Fold's Go loop over the rows off, off+1, … of the run's block:
// it continues the sums in s.
func (run *NormalRun) fold(v, inv []float64, off int, store bool, s *runSums) {
	inv = inv[:len(v)]
	if run.perTerm() {
		run.foldMasked(v, inv, off, store, s)
		return
	}
	W := s.w
	switch run.n {
	case 0:
		for r := range v {
			w := float64(v[r] * inv[r])
			W += w
			if store {
				v[r] = w
			}
		}
	case 1:
		x0 := run.x[0][off : off+len(v)]
		sx0, sxx0, sw := s.sx[0], s.sxx[0], s.sw[0]
		for r := range v {
			w := float64(v[r] * inv[r])
			W += w
			if store {
				v[r] = w
			}
			wx := w * x0[r]
			sx0 += wx
			sxx0 += wx * x0[r]
			sw += w
		}
		s.sx[0], s.sxx[0], s.sw[0] = sx0, sxx0, sw
	case 2:
		x0, x1 := run.x[0][off:off+len(v)], run.x[1][off:off+len(v)]
		sx0, sxx0, sx1, sxx1, sw := s.sx[0], s.sxx[0], s.sx[1], s.sxx[1], s.sw[0]
		for r := range v {
			w := float64(v[r] * inv[r])
			W += w
			if store {
				v[r] = w
			}
			wx := w * x0[r]
			sx0 += wx
			sxx0 += wx * x0[r]
			wx = w * x1[r]
			sx1 += wx
			sxx1 += wx * x1[r]
			sw += w
		}
		s.sx[0], s.sxx[0], s.sx[1], s.sxx[1], s.sw[0] = sx0, sxx0, sx1, sxx1, sw
	}
	s.w = W
}

// foldMasked is fold for a run that takes the masked loops: each term adds
// w·x, (w·x)·x and w into its own sums only where its x is known.
func (run *NormalRun) foldMasked(v, inv []float64, off int, store bool, s *runSums) {
	W := s.w
	for r := range v {
		w := float64(v[r] * inv[r])
		W += w
		if store {
			v[r] = w
		}
		for t := range run.k[:run.n] {
			if x := run.x[t][off+r]; x == x {
				wx := w * x
				s.sx[t] += wx
				s.sxx[t] += wx * x
				s.sw[t] += w
			}
		}
	}
	s.w = W
}

// flush adds each term's sums into its statistics slot.
func (run *NormalRun) flush(s *runSums) {
	for t := 0; t < run.n; t++ {
		sw := s.sw[t]
		if !run.perTerm() {
			sw = s.sw[0]
		}
		addNormalStats(run.st[t], s.sx[t], s.sxx[t], sw)
	}
}

// Lanes is the number of classes FoldLanes folds at once, one per lane of
// a 256-bit vector.
const Lanes = 4

// laneSums is runSums for Lanes runs at once, element l of every array
// belonging to lane l — the layout the vector kernels keep in registers.
type laneSums struct {
	w           [Lanes]float64
	sx, sxx, sw [normalRunMax][Lanes]float64
}

// FoldLanes folds Lanes classes at once: runs[l], bound to the same row
// block as the others, holds the normal terms of class l, v[l] is that
// class's vector and W[l] its running class sum, and inv holds the row
// reciprocals every class shares. It leaves W[l], v[l] and every
// statistics slot exactly as runs[l].Fold(v[l], inv, W[l], store) would,
// one class after another: each lane scales its own class's values and
// adds them in ascending row order, so no sum changes its order. Where
// the vector kernels run, the rows up to the last multiple of four go one
// class per lane for unmasked runs of two terms that do not store and for
// runs of three; the rest, and every row elsewhere, run Fold's Go loop.
// It reports false, doing nothing, when the runs do not all hold the same
// non-empty list of columns.
func FoldLanes(runs *[Lanes]NormalRun, v *[Lanes][]float64, inv []float64, W *[Lanes]float64, store bool) bool {
	n := runs[0].n
	if n == 0 {
		return false
	}
	for l := 1; l < Lanes; l++ {
		if runs[l].n != n {
			return false
		}
		for t := 0; t < n; t++ {
			if runs[l].k[t].t.attr != runs[0].k[t].t.attr {
				return false
			}
		}
	}
	m := len(v[0])
	inv = inv[:m]
	vs := *v
	for l := range vs {
		vs[l] = vs[l][:m]
	}
	ls := laneSums{w: *W}
	q := foldLaneQuads(runs, &vs, inv, store, &ls)
	for l := range runs {
		s := runSums{w: ls.w[l]}
		for t := 0; t < n; t++ {
			s.sx[t], s.sxx[t], s.sw[t] = ls.sx[t][l], ls.sxx[t][l], ls.sw[t][l]
		}
		if q < m {
			runs[l].fold(vs[l][q:], inv[q:], q, store, &s)
		}
		runs[l].flush(&s)
		W[l] = s.w
	}
	return true
}

// FoldMax folds v into the running row maxima mx: strictly greater values
// win, so a NaN never does. Where the vector kernels run, the rows up to
// the last multiple of four go four to a register.
func FoldMax(mx, v []float64) {
	mx = mx[:len(v)]
	q := foldMaxQuads(mx, v)
	for r, x := range v[q:] {
		if x > mx[q+r] {
			mx[q+r] = x
		}
	}
}

// KLTo implements Term: the closed-form Gaussian divergence
// KL(N(μ₁,σ₁) ‖ N(μ₂,σ₂)) = ln(σ₂/σ₁) + (σ₁² + (μ₁−μ₂)²)/(2σ₂²) − ½.
func (t *normalTerm) KLTo(other Term) (float64, error) {
	o, ok := other.(*normalTerm)
	if !ok || o.attr != t.attr {
		return 0, fmt.Errorf("model: KL between incompatible terms")
	}
	r := t.sigma / o.sigma
	dm := t.mean - o.mean
	return math.Log(1/r) + (r*r+dm*dm/(o.sigma*o.sigma))/2 - 0.5, nil
}
