package model

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// TestNormalRunScoreAndFoldLanesVectorized: on a CPU the probe accepts,
// Score, FoldLanes and FoldMax hand every whole quad of rows to their
// vector kernels, the masked runs of three included, and on a CPU with
// AVX-512F Score hands the unmasked run of two every whole oct as well —
// otherwise the tests comparing them with the Go loops would compare the
// Go loops with themselves, or the quad kernels with themselves.
func TestNormalRunScoreAndFoldLanesVectorized(t *testing.T) {
	if !stats.HasAVX2FMA() {
		t.Skip("no AVX2+FMA")
	}
	octs := 0
	if stats.HasAVX512() {
		octs = 8
	}
	t.Logf("AVX-512F: %v", octs > 0)
	r := rng.New(18)
	for _, tc := range []struct {
		n           int
		masked      bool
		fold, store bool
		octs        int
	}{
		{n: 2, fold: true, octs: octs},
		{n: 3, masked: true, store: true},
		{n: 3, masked: true},
	} {
		xs := vecColumns(r, tc.n, 0, 14, tc.masked)
		run := vecRun(vecKernels(r, tc.n, false), xs, nil, nil, tc.masked)
		if o, q := run.scoreQuads(make([]float64, 14), make([]float64, 14), 0, true, tc.fold); o != tc.octs || q != 12 {
			t.Fatalf("%+v: scoreQuads did %d of 14 rows, %d eight to a register; want 12 and %d", tc, q, o, tc.octs)
		}
		var runs [Lanes]NormalRun
		var v [Lanes][]float64
		for l := range runs {
			runs[l] = vecRun(vecKernels(r, tc.n, false), xs, nil, nil, tc.masked)
			v[l] = make([]float64, 14)
		}
		if q := foldLaneQuads(&runs, &v, make([]float64, 14), tc.store, new(laneSums)); q != 12 {
			t.Fatalf("%+v: foldLaneQuads did %d of 14 rows, want 12", tc, q)
		}
	}
	if q := foldMaxQuads(make([]float64, 14), make([]float64, 14)); q != 12 {
		t.Fatalf("foldMaxQuads did %d of 14 rows, want 12", q)
	}
}
