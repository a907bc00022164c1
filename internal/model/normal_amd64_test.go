package model

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// TestNormalRunScoreAndFoldLanesVectorized: on a CPU the probe accepts,
// Score, FoldLanes and FoldMax hand every whole quad of rows to their
// vector kernels, the masked runs of three included — otherwise the tests
// comparing them with the Go loops would compare the Go loops with
// themselves.
func TestNormalRunScoreAndFoldLanesVectorized(t *testing.T) {
	if !stats.HasAVX2FMA() {
		t.Skip("no AVX2+FMA")
	}
	r := rng.New(18)
	for _, tc := range []struct {
		n           int
		masked      bool
		fold, store bool
	}{
		{n: 2, fold: true},
		{n: 3, masked: true, store: true},
		{n: 3, masked: true},
	} {
		xs := vecColumns(r, tc.n, 0, 10, tc.masked)
		run := vecRun(vecKernels(r, tc.n, false), xs, nil, nil, tc.masked)
		if q := run.scoreQuads(make([]float64, 10), make([]float64, 10), 0, true, tc.fold); q != 8 {
			t.Fatalf("%+v: scoreQuads did %d of 10 rows, want 8", tc, q)
		}
		var runs [Lanes]NormalRun
		var v [Lanes][]float64
		for l := range runs {
			runs[l] = vecRun(vecKernels(r, tc.n, false), xs, nil, nil, tc.masked)
			v[l] = make([]float64, 10)
		}
		if q := foldLaneQuads(&runs, &v, make([]float64, 10), tc.store, new(laneSums)); q != 8 {
			t.Fatalf("%+v: foldLaneQuads did %d of 10 rows, want 8", tc, q)
		}
	}
	if q := foldMaxQuads(make([]float64, 10), make([]float64, 10)); q != 8 {
		t.Fatalf("foldMaxQuads did %d of 10 rows, want 8", q)
	}
}
