package model

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// TestNormalRunScoreAndFoldLanesVectorized: on a CPU the probe accepts,
// Score and FoldLanes hand every whole quad of rows to their vector
// kernels — otherwise the tests comparing them with the Go loops would
// compare the Go loops with themselves.
func TestNormalRunScoreAndFoldLanesVectorized(t *testing.T) {
	if !stats.HasAVX2FMA() {
		t.Skip("no AVX2+FMA")
	}
	r := rng.New(18)
	xs := [][]float64{vecColumn(r, 10), vecColumn(r, 10)}
	run := vecRun(vecKernels(r, 2, false), xs, nil, nil)
	if q := run.scoreQuads(make([]float64, 10), make([]float64, 10), 0, true, true); q != 8 {
		t.Fatalf("scoreQuads did %d of 10 rows, want 8", q)
	}
	var runs [Lanes]NormalRun
	var v [Lanes][]float64
	for l := range runs {
		runs[l] = vecRun(vecKernels(r, 2, false), xs, nil, nil)
		v[l] = make([]float64, 10)
	}
	if q := foldLaneQuads(&runs, &v, make([]float64, 10), new(laneSums)); q != 8 {
		t.Fatalf("foldLaneQuads did %d of 10 rows, want 8", q)
	}
}
