package model

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dataset"
)

// multinomialTerm is AutoClass's single_multinomial: one discrete attribute
// modeled as a categorical distribution with a symmetric Dirichlet prior.
//
// Sufficient statistics (cardinality values): weighted level counts.
//
// MAP update: p_v = (α + c_v) / (V·α + W).
type multinomialTerm struct {
	attr  int
	card  int
	pr    *Priors
	probs []float64
	logp  []float64
}

func newMultinomialTerm(attr, card int, pr *Priors) *multinomialTerm {
	t := &multinomialTerm{
		attr:  attr,
		card:  card,
		pr:    pr,
		probs: make([]float64, card),
		logp:  make([]float64, card),
	}
	u := 1 / float64(card)
	for v := range t.probs {
		t.probs[v] = u
		t.logp[v] = math.Log(u)
	}
	return t
}

func (t *multinomialTerm) Kind() TermKind { return SingleMultinomial }
func (t *multinomialTerm) Attrs() []int   { return []int{t.attr} }

// Probs returns the current level probabilities (exported for reports and
// tests). Callers must not modify the slice.
func (t *multinomialTerm) Probs() []float64 { return t.probs }

func (t *multinomialTerm) LogProb(row []float64) float64 {
	x := row[t.attr]
	if dataset.IsMissing(x) {
		return 0
	}
	return t.logp[int(x)]
}

func (t *multinomialTerm) StatsSize() int { return t.card }

func (t *multinomialTerm) AccumulateStats(row []float64, w float64, st []float64) {
	x := row[t.attr]
	if dataset.IsMissing(x) {
		return
	}
	st[int(x)] += w
}

func (t *multinomialTerm) Update(st []float64) {
	alpha := t.pr.DirichletAlpha
	total := float64(t.card) * alpha
	for _, c := range st {
		total += c
	}
	for v := range t.probs {
		p := (alpha + st[v]) / total
		t.probs[v] = p
		t.logp[v] = math.Log(p)
	}
}

func (t *multinomialTerm) LogPrior() float64 {
	return logSymmetricDirichletPDF(t.probs, t.pr.DirichletAlpha)
}

func (t *multinomialTerm) NumParams() int { return t.card - 1 }

func (t *multinomialTerm) Params() []float64 {
	return append([]float64(nil), t.probs...)
}

func (t *multinomialTerm) SetParams(p []float64) error {
	if len(p) != t.card {
		return fmt.Errorf("model: multinomial term needs %d params, got %d", t.card, len(p))
	}
	sum := 0.0
	for _, v := range p {
		if v <= 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("model: invalid multinomial probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("model: multinomial params sum to %v", sum)
	}
	copy(t.probs, p)
	for v := range t.probs {
		t.logp[v] = math.Log(t.probs[v])
	}
	return nil
}

func (t *multinomialTerm) Clone() Term {
	c := &multinomialTerm{
		attr:  t.attr,
		card:  t.card,
		pr:    t.pr,
		probs: append([]float64(nil), t.probs...),
		logp:  append([]float64(nil), t.logp...),
	}
	return c
}

func (t *multinomialTerm) Describe(ds *dataset.Dataset) string {
	a := ds.Attr(t.attr)
	parts := make([]string, t.card)
	for v := range parts {
		parts[v] = fmt.Sprintf("%s=%.3f", a.Levels[v], t.probs[v])
	}
	return fmt.Sprintf("%s ~ Multinomial(%s)", a.Name, strings.Join(parts, ", "))
}

// multinomialKernel is the blocked path of multinomialTerm. The per-cycle
// invariant is the log-probability table itself, which Update and SetParams
// rewrite in place on the term — so the kernel just reads t.logp and
// Refresh has nothing to do. The x == x check rejects NaN (missing) before
// the int conversion, whose result for NaN is unspecified.
type multinomialKernel struct {
	t *multinomialTerm
}

func (t *multinomialTerm) Kernel() Kernel {
	return &multinomialKernel{t: t}
}

func (k *multinomialKernel) Refresh() {}

func (k *multinomialKernel) BlockLogProb(cols *dataset.Columns, lo, hi int, out []float64, _ *Scratch) {
	col := cols.Col(k.t.attr)[lo:hi]
	logp := k.t.logp
	if !cols.HasMissing(k.t.attr) {
		for i, x := range col {
			out[i] += logp[int(x)]
		}
		return
	}
	for i, x := range col {
		if x == x {
			out[i] += logp[int(x)]
		}
	}
}

func (k *multinomialKernel) BlockAccumulateStats(cols *dataset.Columns, wts []float64, lo, hi int, st []float64, _ *Scratch) {
	col := cols.Col(k.t.attr)[lo:hi]
	if !cols.HasMissing(k.t.attr) {
		for i, x := range col {
			st[int(x)] += wts[i]
		}
		return
	}
	for i, x := range col {
		if x == x {
			st[int(x)] += wts[i]
		}
	}
}

// KLTo implements Term: Σ p·ln(p/q) over the levels.
func (t *multinomialTerm) KLTo(other Term) (float64, error) {
	o, ok := other.(*multinomialTerm)
	if !ok || o.attr != t.attr || o.card != t.card {
		return 0, fmt.Errorf("model: KL between incompatible terms")
	}
	kl := 0.0
	for v := range t.probs {
		kl += t.probs[v] * (t.logp[v] - o.logp[v])
	}
	if kl < 0 {
		kl = 0 // rounding guard; MAP probabilities are never exactly zero
	}
	return kl, nil
}
