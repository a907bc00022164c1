package model

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/stats"
)

func lognormalDS(t *testing.T) (*dataset.Dataset, *Priors) {
	t.Helper()
	ds, _, err := datagen.LogNormalMixture(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ds, NewPriors(ds, ds.Summarize())
}

func TestLogNormalSpecValidates(t *testing.T) {
	ds, pr := lognormalDS(t)
	spec := LogNormalSpec(ds)
	if err := spec.Validate(ds); err != nil {
		t.Fatal(err)
	}
	if spec.Blocks[0].Kind != LogNormal {
		t.Fatalf("kind %v", spec.Blocks[0].Kind)
	}
	if _, err := NewTerm(spec.Blocks[0], ds, pr); err != nil {
		t.Fatal(err)
	}
}

func TestLogNormalRejectsNonPositiveData(t *testing.T) {
	ds := dataset.MustNew("neg", []dataset.Attribute{{Name: "x", Type: dataset.Real}})
	for _, v := range []float64{1, 2, -3, 4} {
		if err := ds.AppendRow([]float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	pr := NewPriors(ds, ds.Summarize())
	if _, err := NewTerm(BlockSpec{Kind: LogNormal, Attrs: []int{0}}, ds, pr); err == nil {
		t.Fatal("non-positive data accepted by single_normal_ln")
	}
}

func TestLogNormalRejectsDiscreteAttr(t *testing.T) {
	ds := dataset.MustNew("d", []dataset.Attribute{
		{Name: "c", Type: dataset.Discrete, Levels: []string{"a", "b"}},
	})
	spec := Spec{Blocks: []BlockSpec{{Kind: LogNormal, Attrs: []int{0}}}}
	if err := spec.Validate(ds); err == nil {
		t.Fatal("log-normal over discrete attribute accepted")
	}
}

func TestLogNormalLogProbMatchesClosedForm(t *testing.T) {
	ds, pr := lognormalDS(t)
	_ = ds
	term := newLogNormalTerm(0, pr)
	if err := term.SetParams([]float64{math.Log(10), 0.5}); err != nil {
		t.Fatal(err)
	}
	x := 12.0
	want := stats.LogNormalPDF(math.Log(x), math.Log(10), 0.5) - math.Log(x)
	if got := term.LogProb([]float64{x}); !stats.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("logprob %v, want %v", got, want)
	}
	// Non-positive and missing contribute zero.
	if term.LogProb([]float64{-1}) != 0 || term.LogProb([]float64{dataset.Missing}) != 0 {
		t.Fatal("out-of-support values should contribute 0")
	}
}

func TestLogNormalPDFIntegratesToOne(t *testing.T) {
	ds, pr := lognormalDS(t)
	_ = ds
	term := newLogNormalTerm(0, pr)
	if err := term.SetParams([]float64{math.Log(5), 0.4}); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	const step = 0.001
	for x := step; x < 50; x += step {
		sum += math.Exp(term.LogProb([]float64{x})) * step
	}
	if math.Abs(sum-1) > 2e-3 {
		t.Fatalf("log-normal pdf integrates to %v", sum)
	}
}

func TestLogNormalUpdateRecoversMedian(t *testing.T) {
	ds, pr := lognormalDS(t)
	term := newLogNormalTerm(0, pr)
	st := make([]float64, 3)
	// Feed only the first mixture component's neighbourhood: values near
	// median 10 (x in [5, 20] mostly belongs to component 0).
	var ref stats.Moments
	for i := 0; i < ds.N(); i++ {
		x := ds.Value(i, 0)
		if x > 3 && x < 30 {
			term.AccumulateStats(ds.RowTo(nil, i), 1, st)
			ref.AddUnweighted(math.Log(x))
		}
	}
	term.Update(st)
	if math.Abs(term.LogMeanParam()-ref.Mean()) > 0.05 {
		t.Fatalf("log mean %v, want %v", term.LogMeanParam(), ref.Mean())
	}
	if term.LogSigmaParam() < pr.LogSigmaFloor[0] {
		t.Fatal("sigma below floor")
	}
}

func TestLogNormalParamsAndClone(t *testing.T) {
	ds, pr := lognormalDS(t)
	_ = ds
	term := newLogNormalTerm(0, pr)
	if err := term.SetParams([]float64{1.5, 0.25}); err != nil {
		t.Fatal(err)
	}
	clone := term.Clone()
	if p := clone.Params(); p[0] != 1.5 || p[1] != 0.25 {
		t.Fatalf("params %v", p)
	}
	clone.SetParams([]float64{9, 9})
	if term.Params()[0] == 9 {
		t.Fatal("clone shares state")
	}
	if err := term.SetParams([]float64{1}); err == nil {
		t.Fatal("short params accepted")
	}
	if err := term.SetParams([]float64{1, -1}); err == nil {
		t.Fatal("negative sigma accepted")
	}
	if term.NumParams() != 2 || term.StatsSize() != 3 {
		t.Fatal("wrong sizes")
	}
	if term.Kind() != LogNormal {
		t.Fatal("wrong kind")
	}
}

func TestLogNormalPriorsFromSummary(t *testing.T) {
	ds, pr := lognormalDS(t)
	_ = ds
	if pr.LogSigma[0] <= 0 || pr.LogSigmaFloor[0] <= 0 {
		t.Fatalf("log priors not derived: %v / %v", pr.LogSigma[0], pr.LogSigmaFloor[0])
	}
	if pr.NonPositive[0] != 0 {
		t.Fatalf("unexpected non-positive count %d", pr.NonPositive[0])
	}
	// The overall log-mean should sit between the component medians.
	if pr.LogMean[0] < math.Log(5) || pr.LogMean[0] > math.Log(5000) {
		t.Fatalf("log mean %v outside data range", pr.LogMean[0])
	}
}

func TestLogNormalDescribe(t *testing.T) {
	ds, pr := lognormalDS(t)
	term := newLogNormalTerm(0, pr)
	if err := term.SetParams([]float64{math.Log(100), 0.3}); err != nil {
		t.Fatal(err)
	}
	desc := term.Describe(ds)
	if desc == "" {
		t.Fatal("empty description")
	}
}
