package autoclass

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/model"
)

// The paper's §2 describes AutoClass's two search levels: "parameter level
// search and model level search" — regardless of any parameter values V,
// AutoClass searches for the most probable model form T "from a set of
// possible Ts with different attribute dependencies and class structure".
// SearchModels implements the model level: it runs the BIG_LOOP for every
// candidate model spec (e.g. independent attributes vs. correlated reals
// vs. log-normal scales) and keeps the overall best classification by the
// approximate marginal-likelihood score, which is comparable across model
// forms because it penalizes each form's parameter count.

// SpecCandidate names one model form T.
type SpecCandidate struct {
	// Name labels the candidate in results ("independent", "correlated"…).
	Name string
	// Spec is the model structure.
	Spec model.Spec
}

// StandardSpecCandidates returns the model forms the engine can search
// over for a dataset: independent attributes always; correlated reals when
// the dataset has at least two real attributes; log-normal reals when every
// real attribute is strictly positive.
func StandardSpecCandidates(ds *dataset.Dataset, sum *dataset.Summary) []SpecCandidate {
	out := []SpecCandidate{{Name: "independent", Spec: model.DefaultSpec(ds)}}
	reals := 0
	allPositive := true
	for k := 0; k < ds.NumAttrs(); k++ {
		if ds.Attr(k).Type != dataset.Real {
			continue
		}
		reals++
		if sum != nil && (sum.NonPositive[k] > 0 || sum.Min[k] <= 0) {
			allPositive = false
		}
	}
	if reals >= 2 {
		out = append(out, SpecCandidate{Name: "correlated", Spec: model.CorrelatedSpec(ds)})
	}
	if reals >= 1 && allPositive && sum != nil {
		out = append(out, SpecCandidate{Name: "log-normal", Spec: model.LogNormalSpec(ds)})
	}
	return out
}

// SpecResult is one candidate's search outcome.
type SpecResult struct {
	// Name is the candidate's label.
	Name string
	// Result is the candidate's full BIG_LOOP result.
	Result *SearchResult
}

// ModelSearchResult is the outcome of the model-level search.
type ModelSearchResult struct {
	// Best is the overall best classification; BestSpec its candidate name.
	Best     *Classification
	BestSpec string
	// PerSpec records every candidate's search in input order.
	PerSpec []SpecResult
}

// SearchModels runs the sequential two-level search: for every candidate
// model form, the full BIG_LOOP; the best classification across forms wins.
// charger may be nil.
func SearchModels(ds *dataset.Dataset, candidates []SpecCandidate, cfg SearchConfig, charger Charger) (*ModelSearchResult, error) {
	if ds.N() == 0 {
		return nil, errors.New("autoclass: empty dataset")
	}
	if len(candidates) == 0 {
		return nil, errors.New("autoclass: no model candidates")
	}
	out := &ModelSearchResult{}
	for _, cand := range candidates {
		res, err := Search(ds, cand.Spec, cfg, &SearchOptions{Charger: charger})
		if err != nil {
			return nil, fmt.Errorf("autoclass: model %q: %w", cand.Name, err)
		}
		out.PerSpec = append(out.PerSpec, SpecResult{Name: cand.Name, Result: res})
		if out.Best == nil || res.Best.Score() > out.Best.Score() {
			out.Best = res.Best
			out.BestSpec = cand.Name
		}
	}
	return out, nil
}
