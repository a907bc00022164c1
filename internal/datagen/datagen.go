// Package datagen builds the synthetic workloads used throughout the
// benchmarks and examples. The central generator reproduces the paper's
// evaluation dataset — a mixture of Gaussian clusters over two real
// attributes — and further generators provide the motivating workloads from
// the paper's introduction (satellite-image pixels, protein feature
// vectors) and mixed real/discrete data for the multinomial model term.
package datagen

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// Component is one cluster of a Gaussian mixture: a weight, a mean vector
// and a per-dimension standard deviation vector (axis-aligned covariance).
type Component struct {
	Weight float64
	Mean   []float64
	Sigma  []float64
}

// GaussianMixture describes a mixture over D real attributes.
type GaussianMixture struct {
	Name       string
	AttrNames  []string
	Components []Component
}

// Validate checks the spec for consistency.
func (g *GaussianMixture) Validate() error {
	if len(g.AttrNames) == 0 {
		return fmt.Errorf("datagen: mixture %q has no attributes", g.Name)
	}
	if len(g.Components) == 0 {
		return fmt.Errorf("datagen: mixture %q has no components", g.Name)
	}
	d := len(g.AttrNames)
	total := 0.0
	for i, c := range g.Components {
		if len(c.Mean) != d || len(c.Sigma) != d {
			return fmt.Errorf("datagen: mixture %q component %d dims mismatch", g.Name, i)
		}
		if c.Weight <= 0 {
			return fmt.Errorf("datagen: mixture %q component %d non-positive weight", g.Name, i)
		}
		for _, s := range c.Sigma {
			if s <= 0 {
				return fmt.Errorf("datagen: mixture %q component %d non-positive sigma", g.Name, i)
			}
		}
		total += c.Weight
	}
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return fmt.Errorf("datagen: mixture %q weights do not sum finitely", g.Name)
	}
	return nil
}

// Generate samples n instances. Labels (the true component of each
// instance) are returned alongside the dataset for use by the accuracy
// tests; AutoClass itself never sees them.
func (g *GaussianMixture) Generate(n int, seed uint64) (*dataset.Dataset, []int, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if n < 0 {
		return nil, nil, fmt.Errorf("datagen: negative instance count %d", n)
	}
	attrs := make([]dataset.Attribute, len(g.AttrNames))
	for i, name := range g.AttrNames {
		attrs[i] = dataset.Attribute{Name: name, Type: dataset.Real}
	}
	ds, err := dataset.New(g.Name, attrs)
	if err != nil {
		return nil, nil, err
	}
	ds.Grow(n)
	r := rng.New(seed)
	weights := make([]float64, len(g.Components))
	for i, c := range g.Components {
		weights[i] = c.Weight
	}
	labels := make([]int, n)
	row := make([]float64, len(attrs))
	for i := 0; i < n; i++ {
		j := r.Categorical(weights)
		labels[i] = j
		c := &g.Components[j]
		for k := range row {
			row[k] = r.NormMS(c.Mean[k], c.Sigma[k])
		}
		if err := ds.AppendRow(row); err != nil {
			return nil, nil, err
		}
	}
	return ds, labels, nil
}

// PaperMixture returns the synthetic workload modeled on the paper's
// evaluation dataset: two real attributes with a handful of well-separated
// Gaussian clusters of unequal weight. The paper gives no cluster layout;
// five moderately separated clusters is the conventional reading of "asked
// the system to find the best clustering" with start_j_list up to 64.
func PaperMixture() *GaussianMixture {
	return &GaussianMixture{
		Name:      "paper-synthetic",
		AttrNames: []string{"x", "y"},
		Components: []Component{
			{Weight: 0.30, Mean: []float64{0, 0}, Sigma: []float64{1.0, 1.0}},
			{Weight: 0.25, Mean: []float64{8, 2}, Sigma: []float64{1.2, 0.8}},
			{Weight: 0.20, Mean: []float64{-6, 7}, Sigma: []float64{0.9, 1.4}},
			{Weight: 0.15, Mean: []float64{3, -9}, Sigma: []float64{1.5, 1.0}},
			{Weight: 0.10, Mean: []float64{-4, -5}, Sigma: []float64{0.7, 0.7}},
		},
	}
}

// Paper generates n tuples of the paper's synthetic dataset.
func Paper(n int, seed uint64) (*dataset.Dataset, error) {
	ds, _, err := PaperMixture().Generate(n, seed)
	return ds, err
}

// SatImageMixture models the Landsat/TM clustering workload the paper cites
// ([6], FIFE image): pixels with four spectral-band intensities drawn from
// land-cover classes with distinct spectral signatures.
func SatImageMixture() *GaussianMixture {
	return &GaussianMixture{
		Name:      "satimage-synthetic",
		AttrNames: []string{"band1", "band2", "band3", "band4"},
		Components: []Component{
			// water: dark in IR bands
			{Weight: 0.18, Mean: []float64{62, 48, 30, 12}, Sigma: []float64{4, 4, 3, 2}},
			// bare soil: bright across bands
			{Weight: 0.22, Mean: []float64{110, 105, 118, 95}, Sigma: []float64{7, 7, 8, 7}},
			// crops: strong near-IR reflectance
			{Weight: 0.28, Mean: []float64{70, 62, 55, 130}, Sigma: []float64{5, 5, 6, 9}},
			// forest: moderate IR, dark visible
			{Weight: 0.20, Mean: []float64{58, 50, 42, 98}, Sigma: []float64{4, 4, 4, 7}},
			// urban: mixed, high variance
			{Weight: 0.12, Mean: []float64{95, 92, 96, 70}, Sigma: []float64{12, 12, 13, 11}},
		},
	}
}

// MixedMixtureSpec describes a mixture over both real and discrete
// attributes. Each class has, per real attribute, a mean and sigma; per
// discrete attribute, a categorical distribution over its levels.
type MixedMixtureSpec struct {
	Name      string
	RealNames []string
	Discrete  []dataset.Attribute // must be Discrete-typed
	Classes   []MixedClass
}

// MixedClass is one class of a MixedMixtureSpec.
type MixedClass struct {
	Weight float64
	Mean   []float64
	Sigma  []float64
	// LevelProbs[d][v] is the probability of level v for discrete
	// attribute d.
	LevelProbs [][]float64
}

// Validate checks the spec.
func (m *MixedMixtureSpec) Validate() error {
	if len(m.Classes) == 0 {
		return fmt.Errorf("datagen: mixed mixture %q has no classes", m.Name)
	}
	for i := range m.Discrete {
		if m.Discrete[i].Type != dataset.Discrete {
			return fmt.Errorf("datagen: mixed mixture %q attribute %q is not discrete", m.Name, m.Discrete[i].Name)
		}
		if err := m.Discrete[i].Validate(); err != nil {
			return err
		}
	}
	for ci, c := range m.Classes {
		if c.Weight <= 0 {
			return fmt.Errorf("datagen: mixed mixture %q class %d non-positive weight", m.Name, ci)
		}
		if len(c.Mean) != len(m.RealNames) || len(c.Sigma) != len(m.RealNames) {
			return fmt.Errorf("datagen: mixed mixture %q class %d real dims mismatch", m.Name, ci)
		}
		for _, s := range c.Sigma {
			if s <= 0 {
				return fmt.Errorf("datagen: mixed mixture %q class %d non-positive sigma", m.Name, ci)
			}
		}
		if len(c.LevelProbs) != len(m.Discrete) {
			return fmt.Errorf("datagen: mixed mixture %q class %d discrete dims mismatch", m.Name, ci)
		}
		for d, probs := range c.LevelProbs {
			if len(probs) != m.Discrete[d].Cardinality() {
				return fmt.Errorf("datagen: mixed mixture %q class %d attr %d level count mismatch", m.Name, ci, d)
			}
		}
	}
	return nil
}

// Generate samples n instances from the mixed mixture, returning the
// dataset and the true labels.
func (m *MixedMixtureSpec) Generate(n int, seed uint64) (*dataset.Dataset, []int, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	attrs := make([]dataset.Attribute, 0, len(m.RealNames)+len(m.Discrete))
	for _, name := range m.RealNames {
		attrs = append(attrs, dataset.Attribute{Name: name, Type: dataset.Real})
	}
	attrs = append(attrs, m.Discrete...)
	ds, err := dataset.New(m.Name, attrs)
	if err != nil {
		return nil, nil, err
	}
	ds.Grow(n)
	r := rng.New(seed)
	weights := make([]float64, len(m.Classes))
	for i := range m.Classes {
		weights[i] = m.Classes[i].Weight
	}
	labels := make([]int, n)
	row := make([]float64, len(attrs))
	for i := 0; i < n; i++ {
		ci := r.Categorical(weights)
		labels[i] = ci
		c := &m.Classes[ci]
		for k := range m.RealNames {
			row[k] = r.NormMS(c.Mean[k], c.Sigma[k])
		}
		for d := range m.Discrete {
			row[len(m.RealNames)+d] = float64(r.Categorical(c.LevelProbs[d]))
		}
		if err := ds.AppendRow(row); err != nil {
			return nil, nil, err
		}
	}
	return ds, labels, nil
}

// ProteinMixture models the protein-classification workload the paper
// cites ([3], Hunter & States): per-residue-window feature vectors with
// real physico-chemical features plus a discrete secondary-structure state.
func ProteinMixture() *MixedMixtureSpec {
	ss := dataset.Attribute{
		Name: "sstate", Type: dataset.Discrete,
		Levels: []string{"helix", "sheet", "coil"},
	}
	return &MixedMixtureSpec{
		Name:      "protein-synthetic",
		RealNames: []string{"hydrophobicity", "volume", "charge"},
		Discrete:  []dataset.Attribute{ss},
		Classes: []MixedClass{
			{Weight: 0.35, Mean: []float64{1.8, 120, 0.0}, Sigma: []float64{0.4, 18, 0.15},
				LevelProbs: [][]float64{{0.75, 0.10, 0.15}}},
			{Weight: 0.30, Mean: []float64{2.6, 150, -0.1}, Sigma: []float64{0.5, 22, 0.12},
				LevelProbs: [][]float64{{0.10, 0.70, 0.20}}},
			{Weight: 0.20, Mean: []float64{0.9, 95, 0.3}, Sigma: []float64{0.3, 14, 0.2},
				LevelProbs: [][]float64{{0.15, 0.15, 0.70}}},
			{Weight: 0.15, Mean: []float64{1.2, 170, -0.4}, Sigma: []float64{0.6, 25, 0.18},
				LevelProbs: [][]float64{{0.40, 0.30, 0.30}}},
		},
	}
}

// LogNormalMixture samples n instances from a mixture of log-normal
// clusters over one positive attribute (e.g. session durations, file
// sizes). Component j has median exp(mu_j) and log-domain spread sigma_j.
// It exercises the single_normal_ln model term.
func LogNormalMixture(n int, seed uint64) (*dataset.Dataset, []int, error) {
	components := []struct {
		weight, mu, sigma float64
	}{
		{0.5, math.Log(10), 0.3},  // median 10
		{0.3, math.Log(200), 0.4}, // median 200
		{0.2, math.Log(5000), 0.5},
	}
	ds, err := dataset.New("lognormal-synthetic", []dataset.Attribute{
		{Name: "size", Type: dataset.Real},
	})
	if err != nil {
		return nil, nil, err
	}
	ds.Grow(n)
	r := rng.New(seed)
	weights := make([]float64, len(components))
	for i, c := range components {
		weights[i] = c.weight
	}
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		j := r.Categorical(weights)
		labels[i] = j
		x := math.Exp(r.NormMS(components[j].mu, components[j].sigma))
		if err := ds.AppendRow([]float64{x}); err != nil {
			return nil, nil, err
		}
	}
	return ds, labels, nil
}

// InjectMissing replaces each value of ds independently with Missing with
// probability rate, returning the number of values blanked. It mutates the
// in-memory dataset in place (Dataset.SetMissing), drawing row by row.
func InjectMissing(ds *dataset.Dataset, rate float64, seed uint64) (int, error) {
	if rate < 0 || rate >= 1 {
		return 0, fmt.Errorf("datagen: missing rate %v out of [0,1)", rate)
	}
	r := rng.New(seed)
	blanked := 0
	row := make([]float64, ds.NumAttrs())
	for i := 0; i < ds.N(); i++ {
		for k, v := range ds.RowTo(row, i) {
			if !dataset.IsMissing(v) && r.Float64() < rate {
				if err := ds.SetMissing(i, k); err != nil {
					return blanked, fmt.Errorf("datagen: %w", err)
				}
				blanked++
			}
		}
	}
	return blanked, nil
}
