package model

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/stats"
)

func twoRealDS(t *testing.T) (*dataset.Dataset, *Priors) {
	t.Helper()
	ds := dataset.MustNew("tr", []dataset.Attribute{
		{Name: "x", Type: dataset.Real},
		{Name: "y", Type: dataset.Real},
	})
	r := rng.New(11)
	for i := 0; i < 500; i++ {
		x := r.NormMS(0, 2)
		y := 0.8*x + r.NormMS(0, 1) // correlated
		ds.AppendRow([]float64{x, y})
	}
	return ds, NewPriors(ds, ds.Summarize())
}

func TestCholeskyKnownMatrix(t *testing.T) {
	// [[4,2],[2,3]] => L = [[2,0],[1,sqrt(2)]]
	l, ok := cholesky([]float64{4, 2, 2, 3}, 2)
	if !ok {
		t.Fatal("SPD matrix rejected")
	}
	if !stats.AlmostEqual(l[0], 2, 1e-12) || !stats.AlmostEqual(l[2], 1, 1e-12) ||
		!stats.AlmostEqual(l[3], math.Sqrt(2), 1e-12) || l[1] != 0 {
		t.Fatalf("L = %v", l)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	if _, ok := cholesky([]float64{1, 2, 2, 1}, 2); ok {
		t.Fatal("indefinite matrix accepted")
	}
	if _, ok := cholesky([]float64{-1}, 1); ok {
		t.Fatal("negative matrix accepted")
	}
}

func TestForwardSolve(t *testing.T) {
	// L = [[2,0],[1,3]], b = [4, 7] => y = [2, 5/3]
	y := forwardSolve([]float64{2, 0, 1, 3}, []float64{4, 7}, 2)
	if !stats.AlmostEqual(y[0], 2, 1e-12) || !stats.AlmostEqual(y[1], 5.0/3, 1e-12) {
		t.Fatalf("y = %v", y)
	}
}

func TestMVNLogProbMatchesClosedForm2D(t *testing.T) {
	ds, pr := twoRealDS(t)
	_ = ds
	term := newMultiNormalTerm([]int{0, 1}, pr)
	mean := []float64{1, -1}
	cov := []float64{2, 0.5, 0.5, 1}
	params := append(append([]float64{}, mean...), cov...)
	if err := term.SetParams(params); err != nil {
		t.Fatal(err)
	}
	x := []float64{1.5, -0.5}
	// Closed form for 2x2.
	det := cov[0]*cov[3] - cov[1]*cov[2]
	inv := []float64{cov[3] / det, -cov[1] / det, -cov[2] / det, cov[0] / det}
	dx := []float64{x[0] - mean[0], x[1] - mean[1]}
	q := dx[0]*(inv[0]*dx[0]+inv[1]*dx[1]) + dx[1]*(inv[2]*dx[0]+inv[3]*dx[1])
	want := -0.5*q - 0.5*math.Log(det) - math.Log(2*math.Pi)
	if got := term.LogProb(x); !stats.AlmostEqual(got, want, 1e-10) {
		t.Fatalf("logprob %v, want %v", got, want)
	}
}

func TestMVNDiagonalMatchesIndependentNormals(t *testing.T) {
	ds, pr := twoRealDS(t)
	_ = ds
	term := newMultiNormalTerm([]int{0, 1}, pr)
	if err := term.SetParams([]float64{0, 0, 4, 0, 0, 9}); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -2}
	want := stats.LogNormalPDF(1, 0, 2) + stats.LogNormalPDF(-2, 0, 3)
	if got := term.LogProb(x); !stats.AlmostEqual(got, want, 1e-10) {
		t.Fatalf("diagonal MVN %v, want %v", got, want)
	}
}

func TestMVNUpdateRecoversCovariance(t *testing.T) {
	ds, pr := twoRealDS(t)
	term := newMultiNormalTerm([]int{0, 1}, pr)
	st := make([]float64, term.StatsSize())
	for i := 0; i < ds.N(); i++ {
		term.AccumulateStats(ds.RowTo(nil, i), 1, st)
	}
	term.Update(st)
	// Reference covariance.
	var mx, my stats.Moments
	for i := 0; i < ds.N(); i++ {
		mx.AddUnweighted(ds.Value(i, 0))
		my.AddUnweighted(ds.Value(i, 1))
	}
	cxy := 0.0
	for i := 0; i < ds.N(); i++ {
		cxy += (ds.Value(i, 0) - mx.Mean()) * (ds.Value(i, 1) - my.Mean())
	}
	cxy /= float64(ds.N())
	got := term.Cov()
	if math.Abs(got[0*2+1]-cxy) > 0.1 {
		t.Fatalf("cov_xy %v, want ~%v", got[0*2+1], cxy)
	}
	if math.Abs(term.Mean()[0]-mx.Mean()) > 0.05 {
		t.Fatalf("mean_x %v, want %v", term.Mean()[0], mx.Mean())
	}
	// Correlation should be strongly positive (data built with 0.8 slope).
	corr := got[1] / math.Sqrt(got[0]*got[3])
	if corr < 0.5 {
		t.Fatalf("correlation %v, expected strongly positive", corr)
	}
}

func TestMVNMarginalOnPartialRow(t *testing.T) {
	ds, pr := twoRealDS(t)
	_ = ds
	term := newMultiNormalTerm([]int{0, 1}, pr)
	if err := term.SetParams([]float64{1, -1, 2, 0.5, 0.5, 1}); err != nil {
		t.Fatal(err)
	}
	// x known, y missing: marginal is N(1, sqrt(2)).
	row := []float64{2.5, dataset.Missing}
	want := stats.LogNormalPDF(2.5, 1, math.Sqrt(2))
	if got := term.LogProb(row); !stats.AlmostEqual(got, want, 1e-10) {
		t.Fatalf("marginal logprob %v, want %v", got, want)
	}
	// Both missing: zero contribution.
	if got := term.LogProb([]float64{dataset.Missing, dataset.Missing}); got != 0 {
		t.Fatalf("all-missing logprob %v", got)
	}
}

func TestMVNPartialRowExcludedFromStats(t *testing.T) {
	ds, pr := twoRealDS(t)
	_ = ds
	term := newMultiNormalTerm([]int{0, 1}, pr)
	st := make([]float64, term.StatsSize())
	term.AccumulateStats([]float64{1, dataset.Missing}, 1, st)
	for _, v := range st {
		if v != 0 {
			t.Fatalf("partial row contributed stats %v", st)
		}
	}
	term.AccumulateStats([]float64{1, 2}, 1, st)
	if st[0] != 1 {
		t.Fatalf("full row weight %v", st[0])
	}
}

func TestMVNDegenerateDataGetsJitterOrFloor(t *testing.T) {
	ds, pr := twoRealDS(t)
	_ = ds
	term := newMultiNormalTerm([]int{0, 1}, pr)
	pr.Kappa = 1e-12
	st := make([]float64, term.StatsSize())
	// Perfectly collinear data: y = x exactly; raw covariance is singular.
	for i := 0; i < 50; i++ {
		x := float64(i)
		term.AccumulateStats([]float64{x, x}, 1, st)
	}
	term.Update(st)
	lp := term.LogProb([]float64{10, 10})
	if math.IsNaN(lp) || math.IsInf(lp, 1) {
		t.Fatalf("degenerate covariance produced %v", lp)
	}
}

func TestMVNParamsRoundTrip(t *testing.T) {
	ds, pr := twoRealDS(t)
	_ = ds
	term := newMultiNormalTerm([]int{0, 1}, pr)
	in := []float64{3, 4, 2, 0.3, 0.3, 1.5}
	if err := term.SetParams(in); err != nil {
		t.Fatal(err)
	}
	clone := term.Clone()
	out := clone.Params()
	for i := range in {
		if !stats.AlmostEqual(out[i], in[i], 1e-12) {
			t.Fatalf("params round trip %v -> %v", in, out)
		}
	}
	if err := term.SetParams(in[:3]); err == nil {
		t.Fatal("short params accepted")
	}
	if err := term.SetParams([]float64{0, 0, -1, 0, 0, 1}); err == nil {
		t.Fatal("negative variance accepted")
	}
	if err := term.SetParams([]float64{0, 0, math.NaN(), 0, 0, 1}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestMVNStatsSize(t *testing.T) {
	ds, pr := twoRealDS(t)
	_ = ds
	if got := newMultiNormalTerm([]int{0, 1}, pr).StatsSize(); got != 1+2+3 {
		t.Fatalf("StatsSize = %d", got)
	}
}

func TestMVNLogProbIntegratesToOne1DMarginal(t *testing.T) {
	ds, pr := twoRealDS(t)
	_ = ds
	term := newMultiNormalTerm([]int{0, 1}, pr)
	if err := term.SetParams([]float64{0, 0, 1, 0.6, 0.6, 2}); err != nil {
		t.Fatal(err)
	}
	// Integrate the x-marginal numerically.
	sum := 0.0
	const step = 0.01
	for x := -10.0; x <= 10; x += step {
		sum += math.Exp(term.LogProb([]float64{x, dataset.Missing})) * step
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("x marginal integrates to %v", sum)
	}
}
