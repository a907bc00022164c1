package model

import "repro/internal/stats"

// vectorRuns enables the AVX kernels of NormalRun.Score and FoldLanes. It
// reads the CPU probe of the vector exp kernel, which also requires the
// YMM register state the kernels use.
var vectorRuns = stats.HasAVX2FMA()

// scoreQuads runs Score over the rows of v up to the last multiple of four
// with scoreAVX and returns how many it did. The kernel covers the one
// mode a benchmarked workload scores, a run of two terms that starts its
// class and folds the row maximum; it does none of any other run, or
// without the kernels.
func (run *NormalRun) scoreQuads(v, mx []float64, logPi float64, first, fold bool) int {
	q := len(v) &^ 3
	if !vectorRuns || q == 0 || run.n != 2 || !first || !fold {
		return 0
	}
	k := [7]float64{
		logPi,
		run.k[0].mean, run.k[0].c, run.k[0].inv2,
		run.k[1].mean, run.k[1].c, run.k[1].inv2,
	}
	scoreAVX(&v[0], &mx[0], &run.x[0][:q][0], &run.x[1][:q][0], q/4, &k)
	return q
}

// foldLaneQuads runs FoldLanes over the rows of inv up to the last
// multiple of four with foldLanesAVX, continuing the sums in s, and
// returns how many it did: none for runs of one term, or without the
// kernels. Every v[l] is as long as inv.
func foldLaneQuads(runs *[Lanes]NormalRun, v *[Lanes][]float64, inv []float64, s *laneSums) int {
	q := len(inv) &^ 3
	if !vectorRuns || q == 0 || runs[0].n != 2 {
		return 0
	}
	foldLanesAVX(&v[0][0], &v[1][0], &v[2][0], &v[3][0], &inv[0], &runs[0].x[0][:q][0], &runs[0].x[1][:q][0], q/4, s)
	return q
}

// scoreAVX is Score over 4·quads rows of a run of two normal terms that
// starts its class and folds the row maximum, with the constants k =
// {logPi, mean₀, c₀, inv2₀, mean₁, c₁, inv2₁}: v, mx, x0 and x1 point at
// the first row of the class vector, the row maxima and the two columns.
//
//go:noescape
func scoreAVX(v, mx, x0, x1 *float64, quads int, k *[7]float64)

// foldLanesAVX is FoldLanes over 4·quads rows of Lanes runs of two normal
// terms over the columns x0 and x1, with the class vectors v0…v3 and the
// row reciprocals inv, continuing the sums in s.
//
//go:noescape
func foldLanesAVX(v0, v1, v2, v3, inv, x0, x1 *float64, quads int, s *laneSums)
