package model

import "repro/internal/stats"

// vectorRuns enables the AVX kernels of NormalRun.Score, FoldLanes and
// FoldMax. It reads the CPU probe of the vector exp kernel, which also
// requires the YMM register state the kernels use.
var vectorRuns = stats.HasAVX2FMA()

// scoreQuads runs Score over the rows of v up to the last multiple of four
// with a vector kernel and returns how many it did. The kernels cover the
// modes a benchmarked workload scores: an unmasked run of two terms that
// starts its class and folds the row maximum (scoreAVX, the paper model),
// and a run of three that starts its class and leaves the maximum to a
// later term (scoreMaskAVX, ProteinMixture). They do none of any other
// run, or without the kernels.
func (run *NormalRun) scoreQuads(v, mx []float64, logPi float64, first, fold bool) int {
	q := len(v) &^ 3
	if !vectorRuns || q == 0 || !first {
		return 0
	}
	switch {
	case run.n == 2 && !run.masked && fold:
		k := [7]float64{
			logPi,
			run.k[0].mean, run.k[0].c, run.k[0].inv2,
			run.k[1].mean, run.k[1].c, run.k[1].inv2,
		}
		scoreAVX(&v[0], &mx[0], &run.x[0][:q][0], &run.x[1][:q][0], q/4, &k)
	case run.n == 3 && !fold:
		k := [10]float64{
			logPi,
			run.k[0].mean, run.k[0].c, run.k[0].inv2,
			run.k[1].mean, run.k[1].c, run.k[1].inv2,
			run.k[2].mean, run.k[2].c, run.k[2].inv2,
		}
		scoreMaskAVX(&v[0], &run.x[0][:q][0], &run.x[1][:q][0], &run.x[2][:q][0], q/4, &k)
	default:
		return 0
	}
	return q
}

// foldLaneQuads runs FoldLanes over the rows of inv up to the last
// multiple of four with a vector kernel, continuing the sums in s, and
// returns how many it did: unmasked runs of two terms that do not store
// take foldLanesAVX, runs of three foldLanesMaskAVX, and no other run, nor
// any without the kernels, takes either. Every v[l] is as long as inv.
func foldLaneQuads(runs *[Lanes]NormalRun, v *[Lanes][]float64, inv []float64, store bool, s *laneSums) int {
	q := len(inv) &^ 3
	run := &runs[0]
	if !vectorRuns || q == 0 {
		return 0
	}
	switch {
	case run.n == 2 && !run.masked && !store:
		foldLanesAVX(&v[0][0], &v[1][0], &v[2][0], &v[3][0], &inv[0], &run.x[0][:q][0], &run.x[1][:q][0], q/4, s)
	case run.n == 3:
		foldLanesMaskAVX(&v[0][0], &v[1][0], &v[2][0], &v[3][0], &inv[0], &run.x[0][:q][0], &run.x[1][:q][0], &run.x[2][:q][0], q/4, store, s)
	default:
		return 0
	}
	return q
}

// foldMaxQuads runs FoldMax over the rows of v up to the last multiple of
// four with foldMaxAVX and returns how many it did: none without the
// kernels.
func foldMaxQuads(mx, v []float64) int {
	q := len(v) &^ 3
	if !vectorRuns || q == 0 {
		return 0
	}
	foldMaxAVX(&mx[0], &v[0], q/4)
	return q
}

// scoreAVX is Score over 4·quads rows of an unmasked run of two normal
// terms that starts its class and folds the row maximum, with the
// constants k = {logPi, mean₀, c₀, inv2₀, mean₁, c₁, inv2₁}: v, mx, x0 and
// x1 point at the first row of the class vector, the row maxima and the
// two columns.
//
//go:noescape
func scoreAVX(v, mx, x0, x1 *float64, quads int, k *[7]float64)

// scoreMaskAVX is Score over 4·quads rows of a run of three normal terms,
// masked or not, that starts its class and does not fold the maximum,
// with the constants k = {logPi, then mean, c and inv2 of each term}: v,
// x0, x1 and x2 point at the first row of the class vector and the three
// columns.
//
//go:noescape
func scoreMaskAVX(v, x0, x1, x2 *float64, quads int, k *[10]float64)

// foldLanesAVX is FoldLanes over 4·quads rows of Lanes unmasked runs of
// two normal terms over the columns x0 and x1 that do not store, with the
// class vectors v0…v3 and the row reciprocals inv, continuing the sums in
// s (the shared Σw in s.sw[0]).
//
//go:noescape
func foldLanesAVX(v0, v1, v2, v3, inv, x0, x1 *float64, quads int, s *laneSums)

// foldLanesMaskAVX is FoldLanes over 4·quads rows of Lanes runs of three
// normal terms, masked or not, over the columns x0, x1 and x2, with the
// class vectors v0…v3 and the row reciprocals inv, storing the weights
// back into v0…v3 when store and continuing the sums in s.
//
//go:noescape
func foldLanesMaskAVX(v0, v1, v2, v3, inv, x0, x1, x2 *float64, quads int, store bool, s *laneSums)

// foldMaxAVX is FoldMax over 4·quads rows of the row maxima mx and the
// class vector v.
//
//go:noescape
func foldMaxAVX(mx, v *float64, quads int)
