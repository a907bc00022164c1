// Package autoclass implements the sequential AutoClass engine: Bayesian
// unsupervised classification by finite mixture modeling, structured
// exactly as the AutoClass C program the paper parallelizes (§2–3).
//
// The engine has two levels of search. The parameter-level search is EM:
// the base_cycle function runs update_wts (E-step: class membership weights
// w_ij), update_parameters (M-step: MAP re-estimation of every class's term
// parameters) and update_approximations (refresh of cached posterior
// quantities). The model-level search — AutoClass's BIG_LOOP — repeatedly
// generates classification tries over a list of starting class counts,
// prunes dead classes, eliminates duplicate converged solutions, and keeps
// the classification with the best approximate marginal likelihood.
//
// The cycle is written against a dataset *view* and a pluggable reduction
// hook so that the P-AutoClass parallel engine (package pautoclass) can run
// the identical code over a partition of the data, substituting a global
// Allreduce where the sequential engine reduces locally.
package autoclass

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/stats"
)

// Class is one mixture component: a mixing weight and one term per model
// block.
type Class struct {
	// LogPi is the log of the class mixing probability π_j.
	LogPi float64
	// W is the class's total membership weight Σ_i w_ij from the most
	// recent update_wts (a global quantity in the parallel engine).
	W float64
	// Terms holds the per-block parameter models, aligned with the
	// classification's Spec.Blocks.
	Terms []model.Term
}

// Clone returns a deep copy.
func (c *Class) Clone() *Class {
	n := &Class{LogPi: c.LogPi, W: c.W, Terms: make([]model.Term, len(c.Terms))}
	for i, t := range c.Terms {
		n.Terms[i] = t.Clone()
	}
	return n
}

// Classification is a full mixture model over a dataset schema.
type Classification struct {
	// Spec is the class model (the discrete search dimension T).
	Spec model.Spec
	// Priors holds the data-derived prior hyperparameters.
	Priors *model.Priors
	// N is the global dataset size (all ranks' rows in the parallel case).
	N int
	// Classes are the live mixture components.
	Classes []*Class
	// LogLik is the data log-likelihood under the current parameters.
	LogLik float64
	// LogPrior is the log prior density of the current parameters.
	LogPrior float64
	// LogPost = LogLik + LogPrior is the (unnormalized) log posterior the
	// EM search climbs.
	LogPost float64
	// Cycles counts base_cycle iterations executed.
	Cycles int
	// Converged records whether the parameter search met its stopping
	// condition (vs. hitting the cycle cap).
	Converged bool
}

// J returns the current number of classes.
func (c *Classification) J() int { return len(c.Classes) }

// NumAttrColumns returns the number of attribute columns covered by the
// spec (the A in the engine's op accounting).
func (c *Classification) NumAttrColumns() int {
	n := 0
	for _, b := range c.Spec.Blocks {
		n += len(b.Attrs)
	}
	return n
}

// NumFreeParams returns the total count of free continuous parameters V:
// the class weights (J−1) plus every term's parameters.
func (c *Classification) NumFreeParams() int {
	n := c.J() - 1
	for _, cl := range c.Classes {
		for _, t := range cl.Terms {
			n += t.NumParams()
		}
	}
	return n
}

// Score returns the approximate log marginal likelihood used to rank
// classifications across different J: the MAP log posterior with a
// BIC-style penalty of ½·d·log N on the free parameter count. (AutoClass
// uses a comparable Laplace/Cheeseman–Stutz approximation; the penalized
// MAP score preserves its ranking behaviour and is documented as a
// substitution in DESIGN.md.)
func (c *Classification) Score() float64 {
	if c.N == 0 {
		return math.Inf(-1)
	}
	return c.LogPost - 0.5*float64(c.NumFreeParams())*math.Log(float64(c.N))
}

// NewClassification builds a J-class classification with every term at its
// prior (global) parameters. The first update_parameters pass replaces them.
func NewClassification(ds *dataset.Dataset, spec model.Spec, pr *model.Priors, j int) (*Classification, error) {
	if j < 1 {
		return nil, fmt.Errorf("autoclass: %d classes requested", j)
	}
	if err := spec.Validate(ds); err != nil {
		return nil, err
	}
	if pr == nil {
		return nil, errors.New("autoclass: nil priors")
	}
	cls := &Classification{Spec: spec, Priors: pr, N: pr.N}
	logPi := -math.Log(float64(j))
	for cj := 0; cj < j; cj++ {
		cl := &Class{LogPi: logPi, Terms: make([]model.Term, len(spec.Blocks))}
		for bi, b := range spec.Blocks {
			t, err := model.NewTerm(b, ds, pr)
			if err != nil {
				return nil, err
			}
			cl.Terms[bi] = t
		}
		cls.Classes = append(cls.Classes, cl)
	}
	return cls, nil
}

// Clone returns a deep copy of the classification.
func (c *Classification) Clone() *Classification {
	n := &Classification{
		Spec:      c.Spec,
		Priors:    c.Priors,
		N:         c.N,
		LogLik:    c.LogLik,
		LogPrior:  c.LogPrior,
		LogPost:   c.LogPost,
		Cycles:    c.Cycles,
		Converged: c.Converged,
	}
	for _, cl := range c.Classes {
		n.Classes = append(n.Classes, cl.Clone())
	}
	return n
}

// LogMembership fills out[j] with log(π_j · p(row | class j)) for every
// class — the unnormalized log membership of one instance. len(out) must be
// J().
func (c *Classification) LogMembership(row []float64, out []float64) {
	for j, cl := range c.Classes {
		lp := cl.LogPi
		for _, t := range cl.Terms {
			lp += t.LogProb(row)
		}
		out[j] = lp
	}
}

// Predict returns the normalized class membership probabilities of one
// instance — how AutoClass reports case memberships ("every instance must
// be a member of some class", paper §2).
func (c *Classification) Predict(row []float64) []float64 {
	out := make([]float64, c.J())
	c.LogMembership(row, out)
	stats.NormalizeLog(out)
	return out
}

// HardAssign returns the most probable class of one instance.
func (c *Classification) HardAssign(row []float64) int {
	out := make([]float64, c.J())
	c.LogMembership(row, out)
	best := 0
	for j := 1; j < len(out); j++ {
		if out[j] > out[best] {
			best = j
		}
	}
	return best
}

// UpdateClassWeightsFromW recomputes every class's LogPi by MAP under the
// symmetric Dirichlet prior: π_j = (α + W_j) / (J·α + N).
func (c *Classification) UpdateClassWeightsFromW() {
	alpha := c.Priors.DirichletAlpha
	denom := float64(c.J())*alpha + float64(c.N)
	for _, cl := range c.Classes {
		cl.LogPi = math.Log((alpha + cl.W) / denom)
	}
}

// RefreshPosterior recomputes LogPrior and LogPost from the current
// parameters and the most recent LogLik — the cheap bookkeeping that
// AutoClass's update_approximations performs.
func (c *Classification) RefreshPosterior() {
	lp := 0.0
	for _, cl := range c.Classes {
		for _, t := range cl.Terms {
			lp += t.LogPrior()
		}
	}
	lp += c.logMixingPrior()
	c.LogPrior = lp
	c.LogPost = c.LogLik + c.LogPrior
}

// logMixingPrior is the log density of the symmetric Dirichlet prior at
// the mixing weights π_j = exp(LogPi_j).
func (c *Classification) logMixingPrior() float64 {
	alpha := c.Priors.DirichletAlpha
	k := float64(c.J())
	logp := stats.LgammaPlus(k*alpha) - k*stats.LgammaPlus(alpha)
	if alpha != 1 {
		for _, cl := range c.Classes {
			v := math.Exp(cl.LogPi)
			if v <= 0 {
				return math.Inf(-1)
			}
			logp += (alpha - 1) * math.Log(v)
		}
	}
	return logp
}

// InitialClass deterministically assigns a global item index to a starting
// class. It hashes (seed, index) so that the assignment is identical no
// matter how the dataset is partitioned across ranks — the property that
// lets the parallel engine reproduce the sequential engine bit-for-bit.
// Alternative parallel strategies (package pautoclass) use it to start from
// the same state as the Full engine.
func InitialClass(seed uint64, globalIndex, j int) int {
	x := seed ^ (uint64(globalIndex)+1)*0x9e3779b97f4a7c15
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(j))
}
