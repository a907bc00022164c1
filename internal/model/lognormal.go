package model

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// logNormalTerm is AutoClass's single_normal_ln: one strictly positive real
// attribute whose logarithm is modeled as a Gaussian. It is the standard
// model for scale-like measurements (durations, intensities, sizes) whose
// spread grows with their magnitude.
//
// The term is the normalTerm MAP machinery applied in the log domain, with
// the change-of-variable Jacobian in the likelihood:
//
//	log p(x) = log N(log x | μ, σ) − log x
//
// Sufficient statistics (3 values): [Σ w·log x, Σ w·(log x)², Σ w].
// Values x <= 0 are outside the support; the engine treats them like
// missing values (NewTerm refuses the spec outright when the dataset's
// summary shows any).
type logNormalTerm struct {
	attr  int
	pr    *Priors
	mean  float64 // mean of log x
	sigma float64 // sigma of log x
}

func newLogNormalTerm(attr int, pr *Priors) *logNormalTerm {
	return &logNormalTerm{
		attr:  attr,
		pr:    pr,
		mean:  pr.LogMean[attr],
		sigma: pr.LogSigma[attr],
	}
}

func (t *logNormalTerm) Kind() TermKind { return LogNormal }
func (t *logNormalTerm) Attrs() []int   { return []int{t.attr} }

// LogMeanParam returns the current class mean of log(x).
func (t *logNormalTerm) LogMeanParam() float64 { return t.mean }

// LogSigmaParam returns the current class sigma of log(x).
func (t *logNormalTerm) LogSigmaParam() float64 { return t.sigma }

func (t *logNormalTerm) LogProb(row []float64) float64 {
	x := row[t.attr]
	if dataset.IsMissing(x) || x <= 0 {
		return 0
	}
	lx := math.Log(x)
	return stats.LogNormalPDF(lx, t.mean, t.sigma) - lx
}

func (t *logNormalTerm) StatsSize() int { return 3 }

func (t *logNormalTerm) AccumulateStats(row []float64, w float64, st []float64) {
	x := row[t.attr]
	if dataset.IsMissing(x) || x <= 0 {
		return
	}
	lx := math.Log(x)
	st[0] += w * lx
	st[1] += w * lx * lx
	st[2] += w
}

func (t *logNormalTerm) Update(st []float64) {
	sumWX, sumWX2, w := st[0], st[1], st[2]
	kappa := t.pr.Kappa
	mu0 := t.pr.LogMean[t.attr]
	sigma0 := t.pr.LogSigma[t.attr]
	mean := (kappa*mu0 + sumWX) / (kappa + w)
	ss := sumWX2 - 2*mean*sumWX + mean*mean*w
	if ss < 0 {
		ss = 0
	}
	dm := mean - mu0
	variance := (kappa*sigma0*sigma0 + kappa*dm*dm + ss) / (kappa + w)
	sigma := math.Sqrt(variance)
	if floor := t.pr.LogSigmaFloor[t.attr]; sigma < floor {
		sigma = floor
	}
	t.mean, t.sigma = mean, sigma
}

func (t *logNormalTerm) LogPrior() float64 {
	mu0 := t.pr.LogMean[t.attr]
	sigma0 := t.pr.LogSigma[t.attr]
	return stats.LogNormalPDF(t.mean, mu0, sigma0) +
		logInvGammaPDF(t.sigma*t.sigma, sigma0*sigma0)
}

func (t *logNormalTerm) NumParams() int { return 2 }

func (t *logNormalTerm) Params() []float64 { return []float64{t.mean, t.sigma} }

func (t *logNormalTerm) SetParams(p []float64) error {
	if len(p) != 2 {
		return fmt.Errorf("model: log-normal term needs 2 params, got %d", len(p))
	}
	if p[1] <= 0 || math.IsNaN(p[0]) || math.IsNaN(p[1]) {
		return fmt.Errorf("model: invalid log-normal params %v", p)
	}
	t.mean, t.sigma = p[0], p[1]
	return nil
}

func (t *logNormalTerm) Clone() Term {
	c := *t
	return &c
}

func (t *logNormalTerm) Describe(ds *dataset.Dataset) string {
	// Report the median and multiplicative spread, the natural log-normal
	// summary.
	return fmt.Sprintf("%s ~ LogNormal(median=%.4g, spread=x%.3g)",
		ds.Attr(t.attr).Name, math.Exp(t.mean), math.Exp(t.sigma))
}

// logNormalKernel is the blocked path of logNormalTerm: the normal kernel
// applied to log x, plus the change-of-variable Jacobian −log x. One
// math.Log per case remains (the reference pays the same); the per-cycle
// invariants log σ and ½log 2π are hoisted out. The single guard x > 0 also
// rejects NaN (missing), since NaN > 0 is false.
type logNormalKernel struct {
	t    *logNormalTerm
	mean float64
	c    float64
	inv2 float64
}

func (t *logNormalTerm) Kernel() Kernel {
	k := &logNormalKernel{t: t}
	k.Refresh()
	return k
}

func (k *logNormalKernel) Refresh() {
	k.mean = k.t.mean
	k.c = -math.Log(k.t.sigma) - stats.HalfLog2Pi
	k.inv2 = 1 / (2 * k.t.sigma * k.t.sigma)
}

func (k *logNormalKernel) BlockLogProb(cols *dataset.Columns, lo, hi int, out []float64, _ *Scratch) {
	col := cols.Col(k.t.attr)[lo:hi]
	mean, c, inv2 := k.mean, k.c, k.inv2
	for i, x := range col {
		if x > 0 {
			lx := math.Log(x)
			d := lx - mean
			out[i] += c - d*d*inv2 - lx
		}
	}
}

func (k *logNormalKernel) BlockAccumulateStats(cols *dataset.Columns, wts []float64, lo, hi int, st []float64, _ *Scratch) {
	col := cols.Col(k.t.attr)[lo:hi]
	var sx, sxx, sw float64
	for i, x := range col {
		if x > 0 {
			w := wts[i]
			lx := math.Log(x)
			wx := w * lx
			sx += wx
			sxx += wx * lx
			sw += w
		}
	}
	st[0] += sx
	st[1] += sxx
	st[2] += sw
}

// KLTo implements Term. KL is invariant under the shared log
// transformation, so the divergence equals that of the underlying normals
// over log x.
func (t *logNormalTerm) KLTo(other Term) (float64, error) {
	o, ok := other.(*logNormalTerm)
	if !ok || o.attr != t.attr {
		return 0, fmt.Errorf("model: KL between incompatible terms")
	}
	r := t.sigma / o.sigma
	dm := t.mean - o.mean
	return math.Log(1/r) + (r*r+dm*dm/(o.sigma*o.sigma))/2 - 0.5, nil
}
