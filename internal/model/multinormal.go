package model

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// multiNormalTerm is AutoClass's multi_normal_cn: a block of D real
// attributes modeled as a joint Gaussian with full covariance, capturing
// correlated attributes (the "whether attributes are correlated" dimension
// of the paper's model space T).
//
// Sufficient statistics (1 + D + D(D+1)/2 values):
//
//	[Σw, Σw·x_a for each a, Σw·x_a·x_b for each a ≤ b]
//
// MAP update with pseudo-count κ, prior mean μ₀ and prior covariance
// diag(σ₀²):
//
//	μ  = (κ·μ₀ + Σwx) / (κ + W)
//	Σ  = (κ·diag(σ₀²) + κ·(μ−μ₀)(μ−μ₀)ᵀ + S) / (κ + W)
//
// with S the weighted scatter about μ, floored on the diagonal.
//
// Missing values: an instance with every block value known uses the
// precomputed Cholesky fast path; an instance with a partially known block
// is scored under the exact Gaussian marginal of its known columns (the
// marginal of a Gaussian is the sub-mean/sub-covariance Gaussian), and
// contributes statistics only for its known entries.
type multiNormalTerm struct {
	attrs []int
	pr    *Priors
	d     int
	mean  []float64
	cov   []float64 // d×d row-major, symmetric
	chol  []float64 // lower Cholesky factor of cov
	ldet  float64   // log det(cov)
}

func newMultiNormalTerm(attrs []int, pr *Priors) *multiNormalTerm {
	d := len(attrs)
	t := &multiNormalTerm{
		attrs: append([]int(nil), attrs...),
		pr:    pr,
		d:     d,
		mean:  make([]float64, d),
		cov:   make([]float64, d*d),
	}
	for i, k := range attrs {
		t.mean[i] = pr.Mean[k]
		t.cov[i*d+i] = pr.Sigma[k] * pr.Sigma[k]
	}
	t.refactor()
	return t
}

func (t *multiNormalTerm) Kind() TermKind { return MultiNormal }
func (t *multiNormalTerm) Attrs() []int   { return t.attrs }

// Mean returns the current class mean vector (read-only).
func (t *multiNormalTerm) Mean() []float64 { return t.mean }

// Cov returns the current covariance matrix, row-major d×d (read-only).
func (t *multiNormalTerm) Cov() []float64 { return t.cov }

// refactor recomputes the Cholesky factor and log-determinant, adding
// diagonal jitter if the matrix is not numerically positive definite.
func (t *multiNormalTerm) refactor() {
	d := t.d
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		m := append([]float64(nil), t.cov...)
		if jitter > 0 {
			for i := 0; i < d; i++ {
				m[i*d+i] += jitter
			}
		}
		chol, ok := cholesky(m, d)
		if ok {
			if jitter > 0 {
				copy(t.cov, m)
			}
			t.chol = chol
			t.ldet = 0
			for i := 0; i < d; i++ {
				t.ldet += 2 * math.Log(chol[i*d+i])
			}
			return
		}
		if jitter == 0 {
			// Scale-aware starting jitter.
			trace := 0.0
			for i := 0; i < d; i++ {
				trace += t.cov[i*d+i]
			}
			jitter = math.Max(trace/float64(d)*1e-8, 1e-12)
		} else {
			jitter *= 10
		}
	}
	// Last resort: fall back to the prior diagonal.
	for i := range t.cov {
		t.cov[i] = 0
	}
	for i, k := range t.attrs {
		t.cov[i*d+i] = t.pr.Sigma[k] * t.pr.Sigma[k]
	}
	chol, _ := cholesky(append([]float64(nil), t.cov...), d)
	t.chol = chol
	t.ldet = 0
	for i := 0; i < d; i++ {
		t.ldet += 2 * math.Log(chol[i*d+i])
	}
}

func (t *multiNormalTerm) LogProb(row []float64) float64 {
	d := t.d
	known := 0
	for _, k := range t.attrs {
		if !dataset.IsMissing(row[k]) {
			known++
		}
	}
	if known == 0 {
		return 0
	}
	if known == d {
		// Fast path: solve L y = (x − μ); logprob = −½‖y‖² − ½ log|Σ| − d/2 log 2π.
		diff := make([]float64, d)
		for i, k := range t.attrs {
			diff[i] = row[k] - t.mean[i]
		}
		y := forwardSolve(t.chol, diff, d)
		q := 0.0
		for _, v := range y {
			q += v * v
		}
		return -0.5*q - 0.5*t.ldet - float64(d)*stats.HalfLog2Pi
	}
	// Marginal over the known columns.
	vals := make([]float64, d)
	for i, k := range t.attrs {
		vals[i] = row[k]
	}
	return t.marginalLogProb(vals)
}

// marginalLogProb scores a partially known block under the exact Gaussian
// marginal of its known columns. vals is in block-local order (vals[i] is
// the value of attrs[i]); NaN entries are missing. Shared by the per-row
// reference path and the blocked kernel; it allocates, which is acceptable
// because partially known blocks are a small minority of cases.
func (t *multiNormalTerm) marginalLogProb(vals []float64) float64 {
	idx := make([]int, 0, t.d)
	for i, v := range vals {
		if !dataset.IsMissing(v) {
			idx = append(idx, i)
		}
	}
	m := len(idx)
	sub := make([]float64, m*m)
	diff := make([]float64, m)
	for a, ia := range idx {
		diff[a] = vals[ia] - t.mean[ia]
		for b, ib := range idx {
			sub[a*m+b] = t.cov[ia*t.d+ib]
		}
	}
	chol, ok := cholesky(sub, m)
	if !ok {
		// Covariance sub-block should inherit positive-definiteness; if
		// rounding broke it, fall back to independent marginals.
		lp := 0.0
		for _, ia := range idx {
			sigma := math.Sqrt(t.cov[ia*t.d+ia])
			lp += stats.LogNormalPDF(vals[ia], t.mean[ia], sigma)
		}
		return lp
	}
	y := forwardSolve(chol, diff, m)
	q, ldet := 0.0, 0.0
	for i := 0; i < m; i++ {
		q += y[i] * y[i]
		ldet += 2 * math.Log(chol[i*m+i])
	}
	return -0.5*q - 0.5*ldet - float64(m)*stats.HalfLog2Pi
}

func (t *multiNormalTerm) StatsSize() int { return 1 + t.d + t.d*(t.d+1)/2 }

func (t *multiNormalTerm) AccumulateStats(row []float64, w float64, st []float64) {
	// Statistics use only fully known blocks; partially known rows would
	// need an E-step imputation to contribute consistently, and typical
	// missingness makes them a small minority.
	d := t.d
	for _, k := range t.attrs {
		if dataset.IsMissing(row[k]) {
			return
		}
	}
	st[0] += w
	pos := 1 + d
	for a := 0; a < d; a++ {
		xa := row[t.attrs[a]]
		st[1+a] += w * xa
		for b := a; b < d; b++ {
			st[pos] += w * xa * row[t.attrs[b]]
			pos++
		}
	}
}

func (t *multiNormalTerm) Update(st []float64) {
	d := t.d
	w := st[0]
	kappa := t.pr.Kappa
	denom := kappa + w
	mean := make([]float64, d)
	for a := 0; a < d; a++ {
		mu0 := t.pr.Mean[t.attrs[a]]
		mean[a] = (kappa*mu0 + st[1+a]) / denom
	}
	// Scatter about the new mean: S_ab = Σw x_a x_b − μ_a Σw x_b − μ_b Σw x_a + W μ_a μ_b.
	cov := make([]float64, d*d)
	pos := 1 + d
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			s := st[pos] - mean[a]*st[1+b] - mean[b]*st[1+a] + w*mean[a]*mean[b]
			pos++
			mu0a := t.pr.Mean[t.attrs[a]]
			mu0b := t.pr.Mean[t.attrs[b]]
			s += kappa * (mean[a] - mu0a) * (mean[b] - mu0b)
			if a == b {
				sigma0 := t.pr.Sigma[t.attrs[a]]
				s += kappa * sigma0 * sigma0
			}
			v := s / denom
			cov[a*d+b] = v
			cov[b*d+a] = v
		}
	}
	// Floor the diagonal.
	for a := 0; a < d; a++ {
		floor := t.pr.SigmaFloor[t.attrs[a]]
		if cov[a*d+a] < floor*floor {
			cov[a*d+a] = floor * floor
		}
	}
	t.mean = mean
	t.cov = cov
	t.refactor()
}

func (t *multiNormalTerm) LogPrior() float64 {
	lp := 0.0
	for a, k := range t.attrs {
		lp += stats.LogNormalPDF(t.mean[a], t.pr.Mean[k], t.pr.Sigma[k])
		lp += logInvGammaPDF(t.cov[a*t.d+a], t.pr.Sigma[k]*t.pr.Sigma[k])
	}
	return lp
}

func (t *multiNormalTerm) NumParams() int { return t.d + t.d*(t.d+1)/2 }

func (t *multiNormalTerm) Params() []float64 {
	out := make([]float64, 0, t.d+t.d*t.d)
	out = append(out, t.mean...)
	out = append(out, t.cov...)
	return out
}

func (t *multiNormalTerm) SetParams(p []float64) error {
	d := t.d
	if len(p) != d+d*d {
		return fmt.Errorf("model: multi-normal term needs %d params, got %d", d+d*d, len(p))
	}
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("model: invalid multi-normal param %v", v)
		}
	}
	copy(t.mean, p[:d])
	copy(t.cov, p[d:])
	// Enforce symmetry from the upper triangle.
	for a := 0; a < d; a++ {
		if t.cov[a*d+a] <= 0 {
			return fmt.Errorf("model: non-positive variance %v", t.cov[a*d+a])
		}
		for b := a + 1; b < d; b++ {
			avg := (t.cov[a*d+b] + t.cov[b*d+a]) / 2
			t.cov[a*d+b] = avg
			t.cov[b*d+a] = avg
		}
	}
	t.refactor()
	return nil
}

func (t *multiNormalTerm) Clone() Term {
	c := &multiNormalTerm{
		attrs: append([]int(nil), t.attrs...),
		pr:    t.pr,
		d:     t.d,
		mean:  append([]float64(nil), t.mean...),
		cov:   append([]float64(nil), t.cov...),
		chol:  append([]float64(nil), t.chol...),
		ldet:  t.ldet,
	}
	return c
}

func (t *multiNormalTerm) Describe(ds *dataset.Dataset) string {
	names := make([]string, t.d)
	means := make([]string, t.d)
	for i, k := range t.attrs {
		names[i] = ds.Attr(k).Name
		means[i] = fmt.Sprintf("%.4g", t.mean[i])
	}
	return fmt.Sprintf("(%s) ~ MVN(mean=[%s], |Sigma|=%.4g)",
		strings.Join(names, ","), strings.Join(means, ","), math.Exp(t.ldet))
}

// cholesky factors the d×d row-major SPD matrix m into its lower Cholesky
// factor L (m = L·Lᵀ), returning ok=false if m is not positive definite.
// m is not modified.
func cholesky(m []float64, d int) ([]float64, bool) {
	l := make([]float64, d*d)
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			sum := m[i*d+j]
			for k := 0; k < j; k++ {
				sum -= l[i*d+k] * l[j*d+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, false
				}
				l[i*d+i] = math.Sqrt(sum)
			} else {
				l[i*d+j] = sum / l[j*d+j]
			}
		}
	}
	return l, true
}

// forwardSolve solves L·y = b for lower-triangular L.
func forwardSolve(l, b []float64, d int) []float64 {
	y := make([]float64, d)
	for i := 0; i < d; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*d+k] * y[k]
		}
		y[i] = sum / l[i*d+i]
	}
	return y
}

// KLTo implements Term: the closed-form multivariate Gaussian divergence
//
//	KL = ½( tr(Σ₂⁻¹Σ₁) + (μ₂−μ₁)ᵀΣ₂⁻¹(μ₂−μ₁) − d + ln(detΣ₂/detΣ₁) )
//
// computed through the other term's Cholesky factor.
func (t *multiNormalTerm) KLTo(other Term) (float64, error) {
	o, ok := other.(*multiNormalTerm)
	if !ok || o.d != t.d {
		return 0, fmt.Errorf("model: KL between incompatible terms")
	}
	for i := range t.attrs {
		if t.attrs[i] != o.attrs[i] {
			return 0, fmt.Errorf("model: KL between different attribute blocks")
		}
	}
	d := t.d
	// tr(Σ₂⁻¹Σ₁): solve L₂ Y = Σ₁ column by column, then L₂ᵀ X = Y; the
	// trace of X is the answer. Equivalently, sum of squares of L₂⁻¹ L₁ if
	// Σ₁ = L₁L₁ᵀ; use the columns-of-Σ₁ route for clarity.
	tr := 0.0
	col := make([]float64, d)
	for j := 0; j < d; j++ {
		for i := 0; i < d; i++ {
			col[i] = t.cov[i*d+j]
		}
		y := forwardSolve(o.chol, col, d)
		x := backwardSolve(o.chol, y, d)
		tr += x[j]
	}
	diff := make([]float64, d)
	for i := 0; i < d; i++ {
		diff[i] = o.mean[i] - t.mean[i]
	}
	y := forwardSolve(o.chol, diff, d)
	quad := 0.0
	for _, v := range y {
		quad += v * v
	}
	kl := 0.5 * (tr + quad - float64(d) + o.ldet - t.ldet)
	if kl < 0 {
		kl = 0
	}
	return kl, nil
}

// multiNormalKernel is the blocked path of multiNormalTerm. Refresh
// precomputes the full-block normalizer c = −½log|Σ| − d/2·log 2π; the
// Cholesky factor itself is the term's (refactor rewrites t.chol, which the
// kernel reads through its term pointer). Fully known rows run through a
// forward-solve in the caller's Scratch with no allocation; partially known
// rows fall back to the shared exact-marginal path.
type multiNormalKernel struct {
	t *multiNormalTerm
	c float64
}

func (t *multiNormalTerm) Kernel() Kernel {
	k := &multiNormalKernel{t: t}
	k.Refresh()
	return k
}

func (k *multiNormalKernel) Refresh() {
	k.c = -0.5*k.t.ldet - float64(k.t.d)*stats.HalfLog2Pi
}

// gather returns the term's column slices for rows [lo, hi), held in s,
// and reports whether any of them can contain a missing value.
func (k *multiNormalKernel) gather(cols *dataset.Columns, lo, hi int, s *Scratch) ([][]float64, bool) {
	cref := s.colRefs(k.t.d)
	anyMissing := false
	for i, a := range k.t.attrs {
		cref[i] = cols.Col(a)[lo:hi]
		if cols.HasMissing(a) {
			anyMissing = true
		}
	}
	return cref, anyMissing
}

func (k *multiNormalKernel) BlockLogProb(cols *dataset.Columns, lo, hi int, out []float64, s *Scratch) {
	t := k.t
	d := t.d
	cref, anyMissing := k.gather(cols, lo, hi, s)
	f := s.floats(3 * d)
	diff, y, vals := f[:d], f[d:2*d], f[2*d:]
	n := hi - lo
	for r := 0; r < n; r++ {
		full := true
		if anyMissing {
			for i := 0; i < d; i++ {
				if v := cref[i][r]; v != v {
					full = false
					break
				}
			}
		}
		if full {
			for i := 0; i < d; i++ {
				diff[i] = cref[i][r] - t.mean[i]
			}
			forwardSolveInto(y, t.chol, diff, d)
			q := 0.0
			for _, v := range y {
				q += v * v
			}
			out[r] += -0.5*q + k.c
			continue
		}
		known := 0
		for i := 0; i < d; i++ {
			vals[i] = cref[i][r]
			if v := vals[i]; v == v {
				known++
			}
		}
		if known == 0 {
			continue
		}
		out[r] += t.marginalLogProb(vals)
	}
}

func (k *multiNormalKernel) BlockAccumulateStats(cols *dataset.Columns, wts []float64, lo, hi int, st []float64, s *Scratch) {
	t := k.t
	d := t.d
	cref, anyMissing := k.gather(cols, lo, hi, s)
	n := hi - lo
	for r := 0; r < n; r++ {
		if anyMissing {
			// Like the reference path, statistics use only fully known
			// blocks.
			miss := false
			for i := 0; i < d; i++ {
				if v := cref[i][r]; v != v {
					miss = true
					break
				}
			}
			if miss {
				continue
			}
		}
		w := wts[r]
		st[0] += w
		pos := 1 + d
		for a := 0; a < d; a++ {
			xa := cref[a][r]
			st[1+a] += w * xa
			for b := a; b < d; b++ {
				st[pos] += w * xa * cref[b][r]
				pos++
			}
		}
	}
}

// forwardSolveInto is forwardSolve writing into caller-provided y, for the
// allocation-free kernel path.
func forwardSolveInto(y, l, b []float64, d int) {
	for i := 0; i < d; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*d+k] * y[k]
		}
		y[i] = sum / l[i*d+i]
	}
}

// backwardSolve solves Lᵀ·x = b for lower-triangular L.
func backwardSolve(l, b []float64, d int) []float64 {
	x := make([]float64, d)
	for i := d - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < d; k++ {
			sum -= l[k*d+i] * x[k]
		}
		x[i] = sum / l[i*d+i]
	}
	return x
}
