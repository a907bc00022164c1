package autoclass

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
)

// rowMajorNormalize is the row-major normalization loop every blocked path
// (the two-pass E-step, the fused chunk pass and the Predictor) ran before
// the class-major sweeps replaced it — kept as their bitwise oracle.
// lp[cj][r] holds class cj's log-membership of row r; the row's weights
// land in wts[r*J:(r+1)*J], its log-evidence in z[r] (−Inf for a row with
// none), its MAP class in best[r], and the class sums and log-likelihood
// accumulate into acc.
func rowMajorNormalize(lp [][]float64, m int, wts, acc, z []float64, best []int) {
	j := len(lp)
	for r := 0; r < m; r++ {
		maxv := math.Inf(-1)
		for cj := 0; cj < j; cj++ {
			if v := lp[cj][r]; v > maxv {
				maxv = v
			}
		}
		w := wts[r*j : (r+1)*j]
		if math.IsInf(maxv, -1) {
			u := 1 / float64(j)
			for cj := 0; cj < j; cj++ {
				w[cj] = u
				acc[cj] += u
			}
			z[r] = math.Inf(-1)
			best[r] = 0
			continue
		}
		sum := 0.0
		for cj := 0; cj < j; cj++ {
			ev := math.Exp(lp[cj][r] - maxv)
			w[cj] = ev
			sum += ev
		}
		inv := 1 / sum
		for cj := 0; cj < j; cj++ {
			wv := w[cj] * inv
			w[cj] = wv
			acc[cj] += wv
		}
		z[r] = maxv + math.Log(sum)
		acc[j] += z[r]
		best[r] = argmax(w)
	}
}

// normalizeInputs fills lp with log-memberships that exercise every branch
// of the normalizer: ordinary values, gaps far below −708 (exp outside the
// vector gate, down to exact zeros), −Inf classes, NaN log-probabilities,
// rows scoring −Inf in every class, exact ties, and a +Inf.
func normalizeInputs(r *rng.Source, lp [][]float64, m int) {
	j := len(lp)
	for row := 0; row < m; row++ {
		kind := r.Intn(16)
		for cj := 0; cj < j; cj++ {
			v := -60 * r.Float64()
			switch u := r.Intn(20); {
			case u == 0:
				v = -708 - 60*r.Float64()
			case u == 1:
				v = -2000 * r.Float64()
			case u == 2:
				v = math.Inf(-1)
			case u == 3:
				v = -1e300
			}
			switch kind {
			case 0:
				v = math.Inf(-1)
			case 1:
				if cj == row%j {
					v = math.NaN()
				}
			case 2:
				v = -3
			case 3:
				if cj == j-1 {
					v = math.Inf(1)
				}
			}
			lp[cj][row] = v
		}
	}
}

// sameSums compares class sums and log-likelihoods bitwise, except that a
// NaN matches any NaN. A sum that picks up two NaNs of different payloads
// (math.NaN() and the x86 default NaN of an invalid operation) keeps one
// of them, and which one depends on the register the compiler makes the
// destination of the add, not on the arithmetic; Go leaves NaN payloads
// unspecified.
func sameSums(t *testing.T, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("class sums and log-likelihood[%d]: %v != %v", i, got[i], want[i])
		}
	}
}

// TestClassMajorNormalizerMatchesRowMajor: the class-major normalizer —
// the row maxima folded class by class, sweep 2 with its per-row step,
// and both forms of sweep 3 (the Predictor's scale-and-argmax and the
// scale-and-fold of the class sums, which stores the weights) — reproduces
// the row-major oracle bitwise: weights, class sums, log-likelihood,
// per-row log-evidence and MAP, for class counts from 1 to 64 and block
// lengths around the 4-lane quads, the 8-lane octs and the full block. The
// last trial's inputs are clean (every row live, finite and inside the
// exp gate), so every whole oct also passes the per-row kernel's gate.
func TestClassMajorNormalizerMatchesRowMajor(t *testing.T) {
	r := rng.New(12)
	for _, j := range []int{1, 2, 3, 8, 64} {
		for _, m := range []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 255, 256} {
			t.Run(fmt.Sprintf("J%d/m%d", j, m), func(t *testing.T) {
				for trial := 0; trial < 9; trial++ {
					var bs blockScratch
					bs.grow(j)
					lp := bs.lp[:j]
					if trial < 8 {
						normalizeInputs(r, lp, m)
					} else {
						for _, v := range lp {
							for row := range v[:m] {
								v[row] = -60 * r.Float64()
							}
						}
					}
					oracleIn := make([][]float64, j)
					for cj := range lp {
						oracleIn[cj] = append([]float64(nil), lp[cj]...)
					}
					acc0 := make([]float64, j+1)
					for i := range acc0 {
						acc0[i] = 100 * r.Float64()
					}
					wantW := make([]float64, m*j)
					wantAcc := append([]float64(nil), acc0...)
					wantZ := make([]float64, m)
					wantBest := make([]int, m)
					rowMajorNormalize(oracleIn, m, wantW, wantAcc, wantZ, wantBest)

					mx := bs.norm.max[:m]
					for row := range mx {
						mx[row] = math.Inf(-1)
					}
					for _, v := range lp {
						model.FoldMax(mx, v[:m])
					}
					gotAcc := append([]float64(nil), acc0...)
					bs.norm.expSum(lp, m, &gotAcc[j])
					gotW := make([]float64, m*j)
					gotBest := make([]int, m)
					bs.norm.scaleArgmax(lp, m, gotW, gotBest)
					for cj, v := range lp {
						gotAcc[cj] = new(model.NormalRun).Fold(v[:m], bs.norm.inv[:m], gotAcc[cj], true)
					}
					stored := make([]float64, m*j)
					for cj, v := range lp {
						for row, x := range v[:m] {
							stored[row*j+cj] = x
						}
					}
					sameBits(t, "weights", gotW, wantW)
					sameBits(t, "stored weights", stored, wantW)
					sameSums(t, gotAcc, wantAcc)
					sameBits(t, "log-evidence", bs.norm.z[:m], wantZ)
					for row := 0; row < m; row++ {
						if gotBest[row] != wantBest[row] {
							t.Fatalf("row %d MAP %d, oracle %d", row, gotBest[row], wantBest[row])
						}
					}
				}
			})
		}
	}
}
