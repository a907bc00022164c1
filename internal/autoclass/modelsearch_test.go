package autoclass

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/model"
)

func TestStandardSpecCandidates(t *testing.T) {
	// Two real attributes, all values unconstrained: independent +
	// correlated (values can be negative, so no log-normal).
	ds := paperDS(t, 200)
	cands := StandardSpecCandidates(ds, ds.Summarize())
	names := map[string]bool{}
	for _, c := range cands {
		names[c.Name] = true
		if err := c.Spec.Validate(ds); err != nil {
			t.Fatalf("candidate %q invalid: %v", c.Name, err)
		}
	}
	if !names["independent"] || !names["correlated"] {
		t.Fatalf("candidates %v", names)
	}
	if names["log-normal"] {
		t.Fatal("log-normal offered for data with non-positive values")
	}
	// Strictly positive single attribute: log-normal offered, correlated
	// not (needs >= 2 reals).
	lds, _, err := datagen.LogNormalMixture(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	lcands := StandardSpecCandidates(lds, lds.Summarize())
	lnames := map[string]bool{}
	for _, c := range lcands {
		lnames[c.Name] = true
	}
	if !lnames["log-normal"] || lnames["correlated"] {
		t.Fatalf("log-normal candidates %v", lnames)
	}
}

func TestSearchModelsPicksBestForm(t *testing.T) {
	// On strictly positive log-normal data, the log-normal form must beat
	// the plain normal form on the penalized score.
	ds, _, err := datagen.LogNormalMixture(2500, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSearchConfig()
	cfg.StartJList = []int{3}
	cfg.Tries = 2
	cfg.EM.MaxCycles = 60
	res, err := SearchModels(ds, StandardSpecCandidates(ds, ds.Summarize()), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestSpec != "log-normal" {
		for _, ps := range res.PerSpec {
			t.Logf("spec %q: score %.1f J=%d", ps.Name, ps.Result.Best.Score(), ps.Result.Best.J())
		}
		t.Fatalf("best spec %q, expected log-normal", res.BestSpec)
	}
	if len(res.PerSpec) != 2 {
		t.Fatalf("per-spec results %d", len(res.PerSpec))
	}
}

func TestSearchModelsValidation(t *testing.T) {
	ds := paperDS(t, 100)
	cfg := quickSearchConfig()
	if _, err := SearchModels(ds, nil, cfg, nil); err == nil {
		t.Fatal("no candidates accepted")
	}
	empty, _ := datagen.Paper(0, 1)
	if _, err := SearchModels(empty, StandardSpecCandidates(ds, nil), cfg, nil); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestSearchModelsWithErrorPropagates(t *testing.T) {
	ds := paperDS(t, 60)
	_, err := SearchModels(ds, []SpecCandidate{{Name: "x", Spec: model.Spec{}}}, quickSearchConfig(), nil)
	if err == nil {
		t.Fatal("runner error swallowed")
	}
}

func TestSearchModelsCorrelatedWinsOnCorrelatedData(t *testing.T) {
	// Build strongly correlated two-attribute clusters: the correlated
	// form should win the model-level search.
	mix := &datagen.GaussianMixture{
		Name:      "corr",
		AttrNames: []string{"x", "y"},
		Components: []datagen.Component{
			{Weight: 0.5, Mean: []float64{0, 0}, Sigma: []float64{1, 1}},
			{Weight: 0.5, Mean: []float64{6, 6}, Sigma: []float64{1, 1}},
		},
	}
	ds, _, err := mix.Generate(3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Introduce correlation by shearing y toward x.
	sheared := dataset.MustNew(ds.Name, ds.Attrs())
	row := make([]float64, ds.NumAttrs())
	for i := 0; i < ds.N(); i++ {
		ds.RowTo(row, i)
		row[1] = row[1]*0.3 + row[0]*0.95
		if err := sheared.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultSearchConfig()
	cfg.StartJList = []int{2}
	cfg.Tries = 1
	cfg.EM.MaxCycles = 60
	res, err := SearchModels(sheared, StandardSpecCandidates(sheared, sheared.Summarize()), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestSpec != "correlated" {
		for _, ps := range res.PerSpec {
			t.Logf("spec %q: score %.1f", ps.Name, ps.Result.Best.Score())
		}
		t.Fatalf("best spec %q, expected correlated", res.BestSpec)
	}
}
